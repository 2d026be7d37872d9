package main

// Observability smoke test: boot the full service as one gossip fleet node,
// make one traced request, and check the whole observability surface holds
// together — /metrics and /metrics/cluster parse as Prometheus text
// exposition, the response's X-Trace-ID resolves at /debug/traces, and the
// stored trace is one fragment holding the routing spans (cluster/route and
// the cluster/peer/<node-name> hop) and the pipeline's own. CI runs this as
// its own job (make obs-smoke).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestObservabilitySmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-ops-addr", "127.0.0.1:0",
			"-node-name", "obs-node",
			"-shutdown-timeout", "2s",
		}, buf)
	}()
	addr := waitFor(t, buf, `service listening on ([0-9.:]+)`)
	opsAddr := waitFor(t, buf, `ops listener \(pprof, metrics\) on ([0-9.:]+)`)

	// One traced discover request, routed to the node's own share.
	doc := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr><b>C</b> z<hr></div>"}`
	resp, err := http.Post("http://"+addr+"/v1/discover", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/discover = %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if traceID == "" {
		t.Fatal("response carries no X-Trace-ID header")
	}
	if _, ok := obs.ParseTraceID(traceID); !ok {
		t.Fatalf("X-Trace-ID %q is not a valid trace id", traceID)
	}

	// Both metric surfaces must be valid Prometheus exposition.
	for _, path := range []string{"/metrics", "/metrics/cluster"} {
		code, text := get(t, "http://"+addr+path)
		if code != 200 {
			t.Fatalf("%s = %d: %s", path, code, text)
		}
		if err := obs.ValidateExposition([]byte(text)); err != nil {
			t.Errorf("%s is not valid exposition: %v", path, err)
		}
	}
	if _, text := get(t, "http://"+addr+"/metrics/cluster"); !strings.Contains(text, `peer="obs-node"`) ||
		!strings.Contains(text, `peer="router"`) {
		t.Errorf("/metrics/cluster lacks per-peer attribution:\n%.2000s", text)
	}

	// The trace must be retrievable on the ops listener: in the JSON listing
	// and as a rendered tree — one fragment, the node's, with the routing
	// spans and the pipeline's.
	deadline := time.Now().Add(3 * time.Second)
	var tree string
	for time.Now().Before(deadline) {
		if code, text := get(t, "http://"+opsAddr+"/debug/traces?trace="+traceID); code == 200 {
			tree = text
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if tree == "" {
		t.Fatalf("trace %s never appeared at /debug/traces", traceID)
	}
	if !strings.Contains(tree, "(1 fragment(s))") || !strings.Contains(tree, "obs-node POST /v1/discover") {
		t.Errorf("trace is not one fragment from the node:\n%s", tree)
	}
	if !strings.Contains(tree, "cluster/route") || !strings.Contains(tree, "cluster/peer/obs-node") {
		t.Errorf("trace tree missing the routing spans:\n%s", tree)
	}
	if !strings.Contains(tree, "parse") {
		t.Errorf("trace tree missing the pipeline spans:\n%s", tree)
	}

	code, listing := get(t, "http://"+opsAddr+"/debug/traces")
	if code != 200 {
		t.Fatalf("/debug/traces listing = %d", code)
	}
	var env struct {
		Published int `json:"published"`
		Traces    []struct {
			TraceID string `json:"trace_id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(listing), &env); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v\n%s", err, listing)
	}
	found := false
	for _, tr := range env.Traces {
		if tr.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s missing from listing (published=%d)", traceID, env.Published)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// TestFleetNodeCountsRequestOnce boots a one-node fleet and sends one POST
// /v1/discover, which the router hands to the node's own share of the
// ring. The request passes the node's HTTP stack once: one
// http_requests_total, body bytes equal to the body's length, one request
// log line and one trace fragment.
func TestFleetNodeCountsRequestOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-ops-addr", "127.0.0.1:0",
			"-node-name", "once",
			"-shutdown-timeout", "2s",
		}, buf)
	}()
	addr := waitFor(t, buf, `service listening on ([0-9.:]+)`)
	opsAddr := waitFor(t, buf, `ops listener \(pprof, metrics\) on ([0-9.:]+)`)

	doc := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr><b>C</b> z<hr></div>"}`
	resp, err := http.Post("http://"+addr+"/v1/discover", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/discover = %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)

	_, metrics := get(t, "http://"+opsAddr+"/metrics")
	sum := func(pattern string) int {
		total := 0
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(metrics, -1) {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatalf("%q: %v", m[0], err)
			}
			total += n
		}
		return total
	}
	if n := sum(`(?m)^http_requests_total\{[^}]*route="POST /v1/discover"\} (\d+)$`); n != 1 {
		t.Errorf("http_requests_total for the discover route = %d, want 1", n)
	}
	if n := sum(`(?m)^http_request_body_bytes_total\{route="POST /v1/discover"\} (\d+)$`); n != len(doc) {
		t.Errorf("http_request_body_bytes_total = %d, want the body's %d bytes", n, len(doc))
	}
	if n := len(regexp.MustCompile(`"msg":"request".*"path":"/v1/discover"`).FindAllString(buf.String(), -1)); n != 1 {
		t.Errorf("request log lines for /v1/discover = %d, want 1", n)
	}

	_, listing := get(t, "http://"+opsAddr+"/debug/traces")
	var env struct {
		Traces []struct {
			TraceID   string `json:"trace_id"`
			Fragments int    `json:"fragments"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(listing), &env); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v", err)
	}
	fragments := -1
	for _, tr := range env.Traces {
		if tr.TraceID == traceID {
			fragments = tr.Fragments
		}
	}
	if fragments != 1 {
		t.Errorf("trace %s has %d fragments, want 1", traceID, fragments)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
