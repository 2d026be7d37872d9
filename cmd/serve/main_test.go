package main

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is an io.Writer safe for the concurrent writes run() and the
// request logger make while the test polls the output.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// waitFor polls the buffer for a regexp's first capture group.
func waitFor(t *testing.T, buf *lockedBuffer, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("output never matched %q; output so far:\n%s", pattern, buf.String())
	return ""
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeGracefulShutdown boots the full service on ephemeral ports,
// exercises the service and ops listeners, then cancels the context and
// checks run() drains and returns cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-ops-addr", "127.0.0.1:0",
			"-shutdown-timeout", "2s",
		}, buf)
	}()

	addr := waitFor(t, buf, `service listening on ([0-9.:]+)`)
	opsAddr := waitFor(t, buf, `ops listener \(pprof, metrics\) on ([0-9.:]+)`)

	if code, body := get(t, "http://"+addr+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, "http://"+addr+"/metrics"); code != 200 ||
		!strings.Contains(body, "http_requests_total") {
		t.Errorf("/metrics = %d, want 200 with http_requests_total; body:\n%s", code, body)
	}
	if code, body := get(t, "http://"+addr+"/debug/vars"); code != 200 ||
		!strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %d, want 200 with memstats", code)
		_ = body
	}
	if code, body := get(t, "http://"+opsAddr+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("ops /debug/pprof/cmdline = %d", code)
	}
	if code, _ := get(t, "http://"+opsAddr+"/metrics"); code != 200 {
		t.Errorf("ops /metrics = %d", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after context cancel")
	}
	if !strings.Contains(buf.String(), "shutting down") {
		t.Errorf("missing shutdown message; output:\n%s", buf.String())
	}
}

// TestServeBadFlag checks flag errors surface instead of booting.
func TestServeBadFlag(t *testing.T) {
	buf := &lockedBuffer{}
	if err := run(context.Background(), []string{"-no-such-flag"}, buf); err == nil {
		t.Error("run accepted an unknown flag")
	}
	for _, args := range [][]string{
		{"-cache-size", "-1"},
		{"-batch-parallelism", "-2"},
	} {
		if err := run(context.Background(), args, &lockedBuffer{}); err == nil {
			t.Errorf("run accepted %v", args)
		}
	}
}

// TestServeCacheAndBatchFlags boots the service with an explicit cache size
// and batch parallelism and checks both code paths are live: repeated
// discover requests surface boundary_cache_* metrics, and the batch endpoint
// answers in order.
func TestServeCacheAndBatchFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-cache-size", "16",
			"-batch-parallelism", "2",
			"-shutdown-timeout", "2s",
		}, buf)
	}()
	addr := waitFor(t, buf, `service listening on ([0-9.:]+)`)

	doc := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr><b>C</b> z</div>"}`
	for i := 0; i < 2; i++ {
		code, body := post(t, "http://"+addr+"/v1/discover", doc)
		if code != 200 || !strings.Contains(body, `"separator":"hr"`) {
			t.Fatalf("discover %d = %d %q", i, code, body)
		}
	}
	if code, body := get(t, "http://"+addr+"/metrics"); code != 200 ||
		!strings.Contains(body, "boundary_cache_hits_total 1") ||
		!strings.Contains(body, "boundary_cache_misses_total 1") {
		t.Errorf("/metrics should show one cache hit and one miss; got %d:\n%s", code, body)
	}

	code, body := post(t, "http://"+addr+"/v1/discover/batch",
		`{"documents":[`+doc+`,{"xml":"<f><e>a b</e><e>c d</e><e>e f</e></f>"}]}`)
	if code != 200 {
		t.Fatalf("batch = %d %q", code, body)
	}
	if hr, e := strings.Index(body, `"separator":"hr"`), strings.Index(body, `"separator":"e"`); hr < 0 || e < 0 || hr > e {
		t.Errorf("batch results out of order or missing: %q", body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("run returned %v after cancel", err)
	}
}

// TestServeClusterMode boots one gossip node with no seeds — a fleet of one
// — and checks its router answers routed discover, scatter-gather batch and
// stream traffic, reports its one healthy member, and still serves the
// fallback routes, /healthz and /metrics/cluster.
func TestServeClusterMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-node-name", "solo",
			"-peer-queue-depth", "8",
			"-hedge-after", "250ms",
			"-shutdown-timeout", "2s",
		}, buf)
	}()
	addr := waitFor(t, buf, `service listening on ([0-9.:]+)`)
	if !strings.Contains(buf.String(), "membership: node solo advertising") {
		t.Errorf("missing membership banner; output:\n%s", buf.String())
	}

	doc := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr><b>C</b> z</div>"}`
	xmlDoc := `{"xml":"<f><e>a b</e><e>c d</e><e>e f</e></f>"}`
	if code, body := post(t, "http://"+addr+"/v1/discover", doc); code != 200 ||
		!strings.Contains(body, `"separator":"hr"`) {
		t.Fatalf("routed discover = %d %q", code, body)
	}
	if code, body := post(t, "http://"+addr+"/v1/discover/batch",
		`{"documents":[`+doc+`,`+xmlDoc+`]}`); code != 200 ||
		!strings.Contains(body, `"separator":"hr"`) || !strings.Contains(body, `"separator":"e"`) {
		t.Fatalf("routed batch = %d %q", code, body)
	}
	if code, body := post(t, "http://"+addr+"/v1/discover/stream", doc+"\n"+xmlDoc+"\n"); code != 200 ||
		strings.Count(body, "\n") != 2 || !strings.Contains(body, `"separator":"hr"`) ||
		!strings.Contains(body, `"separator":"e"`) {
		t.Fatalf("routed stream = %d %q", code, body)
	}
	if code, body := get(t, "http://"+addr+"/metrics"); code != 200 ||
		!strings.Contains(body, "boundary_cluster_requests_total") ||
		!strings.Contains(body, "boundary_cluster_peers_healthy 1") {
		t.Errorf("/metrics should show cluster series with 1 healthy peer; got %d:\n%s", code, body)
	}
	if code, body := get(t, "http://"+addr+"/v1/ontologies"); code != 200 ||
		!strings.Contains(body, "obituary") {
		t.Errorf("fallback /v1/ontologies = %d %q", code, body)
	}
	if code, _ := get(t, "http://"+addr+"/healthz"); code != 200 {
		t.Errorf("cluster /healthz = %d", code)
	}
	if code, body := get(t, "http://"+addr+"/metrics/cluster"); code != 200 ||
		!strings.Contains(body, `peer="solo"`) || !strings.Contains(body, `peer="router"`) {
		t.Errorf("/metrics/cluster = %d, want series for peer solo and the router:\n%.2000s", code, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fleet-node run did not return after cancel")
	}
}

// TestServeClusterFlagValidation checks that the removed static-topology
// flags, the removed /healthz prober's period, the removed result-cache
// journal and the removed joiner warmup bound fail flag parsing, so an old
// deploy script stops loudly instead of silently running without them, and
// that -join still needs -node-name.
func TestServeClusterFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-cluster", "2"},
		{"-peers", "http://127.0.0.1:1"},
		{"-health-interval", "1s"},
		{"-cache-journal", "x"},
		{"-warmup-timeout", "5s"},
	} {
		err := run(context.Background(), args, &lockedBuffer{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("run(%v) = %v, want an undefined-flag error", args, err)
		}
	}
	if err := run(context.Background(), []string{"-join", "127.0.0.1:1"}, &lockedBuffer{}); err == nil {
		t.Error("run accepted -join without -node-name")
	}
}

// TestServeAddrInUse checks a bind failure is reported as an error.
func TestServeAddrInUse(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, buf)
	}()
	addr := waitFor(t, buf, `service listening on ([0-9.:]+)`)

	if err := run(ctx, []string{"-addr", addr}, &lockedBuffer{}); err == nil {
		t.Error("second bind on the same address succeeded")
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("first server: %v", err)
	}
}
