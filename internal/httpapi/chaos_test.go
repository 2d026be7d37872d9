package httpapi

// Chaos tests: the fault-injection harness (internal/faultinject) armed
// against the full HTTP service, proving the acceptance properties of the
// hardened pipeline — isolated heuristic panics degrade instead of crash,
// canceled batches stop dispatching, saturation sheds with 429, and
// resource limits answer typed 413/422. The package's TestMain fails the
// run if any of these paths leak goroutines.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/paperdoc"
	"repro/internal/tagtree"
	"repro/internal/template"
)

func newChaosServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(cfg))
	t.Cleanup(srv.Close)
	return srv
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// waitFired polls until the hook point has fired at least n times.
func waitFired(t *testing.T, faults *faultinject.Set, point string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for faults.Fired(point) < n {
		if time.Now().After(deadline) {
			t.Fatalf("hook %s fired %d times, want >= %d", point, faults.Fired(point), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosHeuristicPanicDegrades (acceptance a): an injected heuristic
// panic still answers 200, marked degraded with the heuristic named, the
// panic counter ticks — and the degraded response is NOT cached, so the
// next request after the fault clears gets the full answer.
func TestChaosHeuristicPanicDegrades(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("core/heuristic/HT", faultinject.Fault{Panic: "chaos: HT down"})
	reg := obs.NewRegistry()
	srv := newChaosServer(t, Config{Metrics: reg, CacheSize: 8, Faults: faults})

	body := map[string]any{"html": paperdoc.Figure2, "ontology": "obituary"}
	resp, decoded := post(t, srv, "/v1/discover", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, decoded["error"])
	}
	if got := str(t, decoded["separator"]); got != "hr" {
		t.Errorf("separator = %q, want hr from surviving heuristics", got)
	}
	var degraded bool
	if err := json.Unmarshal(decoded["degraded"], &degraded); err != nil || !degraded {
		t.Errorf("degraded = %s, want true", decoded["degraded"])
	}
	var failed []string
	if err := json.Unmarshal(decoded["failed_heuristics"], &failed); err != nil ||
		len(failed) != 1 || failed[0] != "HT" {
		t.Errorf("failed_heuristics = %s, want [HT]", decoded["failed_heuristics"])
	}

	_, metrics := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, `boundary_heuristic_panics_total{heuristic="HT"} 1`) {
		t.Errorf("panic counter missing:\n%s", metrics)
	}

	// Clear the fault: the identical request must recompute (degraded
	// answers are never cached) and come back whole.
	faults.Remove("core/heuristic/HT")
	resp, decoded = post(t, srv, "/v1/discover", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after clearing fault = %d", resp.StatusCode)
	}
	if _, ok := decoded["degraded"]; ok {
		t.Error("degraded response was served from cache after the fault cleared")
	}
}

// TestChaosBatchCancelStopsDispatch (acceptance b): when the request
// deadline expires mid-batch, dispatch stops — later documents come back
// with code "not_attempted" instead of burning pipeline work. (TestMain
// verifies the worker pool goroutines all unwound.)
func TestChaosBatchCancelStopsDispatch(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("httpapi/discover", faultinject.Fault{Delay: 100 * time.Millisecond})
	srv := newChaosServer(t, Config{
		Faults:         faults,
		BatchWorkers:   1,
		RequestTimeout: 250 * time.Millisecond,
	})

	docs := make([]map[string]any, 8)
	for i := range docs {
		docs[i] = map[string]any{
			"html": fmt.Sprintf("<div><hr><b>doc %d</b> x<hr><b>B</b> y<hr></div>", i),
		}
	}
	resp, decoded := post(t, srv, "/v1/discover/batch", map[string]any{"documents": docs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, decoded["error"])
	}
	var results []struct {
		Separator string `json:"separator"`
		Error     string `json:"error"`
		Code      string `json:"code"`
	}
	if err := json.Unmarshal(decoded["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(docs) {
		t.Fatalf("results = %d, want %d", len(results), len(docs))
	}
	if results[0].Error != "" {
		t.Errorf("first document failed: %s", results[0].Error)
	}
	notAttempted := 0
	for _, r := range results {
		if r.Code == codeNotAttempted {
			notAttempted++
		}
	}
	if notAttempted == 0 {
		t.Error("no documents marked not_attempted after mid-batch deadline")
	}
	if last := results[len(results)-1]; last.Code != codeNotAttempted {
		t.Errorf("last document code = %q error = %q, want not_attempted", last.Code, last.Error)
	}
}

// TestChaosMaxInFlightSheds (acceptance c): with the in-flight limit
// saturated by a slow request, the next one is shed with 429 + Retry-After
// and counted, while /healthz stays reachable.
func TestChaosMaxInFlightSheds(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("httpapi/discover", faultinject.Fault{Delay: time.Second, Times: 1})
	reg := obs.NewRegistry()
	srv := newChaosServer(t, Config{Metrics: reg, MaxInFlight: 1, Faults: faults})

	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/discover", "application/json",
			strings.NewReader(`{"html":"<div><hr><b>slow</b> x<hr><b>B</b> y<hr></div>"}`))
		if err != nil {
			slowDone <- 0
			return
		}
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	// The hook fires after the semaphore is acquired, so one firing means
	// the slot is held and the delay is ticking.
	waitFired(t, faults, "httpapi/discover", 1)

	resp, err := http.Post(srv.URL+"/v1/discover", "application/json",
		strings.NewReader(`{"html":"<div><hr><b>shed me</b> x<hr></div>"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if code, _ := getBody(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d while saturated, want 200 (ops routes bypass shedding)", code)
	}

	if got := <-slowDone; got != http.StatusOK {
		t.Errorf("slow request finished with %d, want 200", got)
	}
	_, metrics := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, "boundary_requests_shed_total 1") {
		t.Errorf("shed counter missing:\n%s", metrics)
	}
}

// TestChaosResourceLimits (acceptance d): per-document parse limits answer
// typed statuses — 422 for structural limits, 413 for the byte limit.
func TestChaosResourceLimits(t *testing.T) {
	srv := newChaosServer(t, Config{
		Limits: tagtree.Limits{MaxBytes: 4 << 10, MaxDepth: 4, MaxNodes: 64},
	})

	deep := strings.Repeat("<div>", 10) + "x" + strings.Repeat("</div>", 10)
	resp, decoded := post(t, srv, "/v1/discover", map[string]any{"html": deep})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("deep document status = %d, want 422 (%s)", resp.StatusCode, decoded["error"])
	}

	wide := "<div>" + strings.Repeat("<b>x</b>", 100) + "</div>"
	resp, decoded = post(t, srv, "/v1/discover", map[string]any{"html": wide})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("wide document status = %d, want 422 (%s)", resp.StatusCode, decoded["error"])
	}

	big := "<div><hr>" + strings.Repeat("padding ", 1024) + "<hr></div>"
	resp, decoded = post(t, srv, "/v1/discover", map[string]any{"html": big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized document status = %d, want 413 (%s)", resp.StatusCode, decoded["error"])
	}
}

// TestChaosRequestTimeout: a request that outlives -request-timeout answers
// 503, not a hang.
func TestChaosRequestTimeout(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("httpapi/discover", faultinject.Fault{Delay: 2 * time.Second})
	srv := newChaosServer(t, Config{Faults: faults, RequestTimeout: 50 * time.Millisecond})

	start := time.Now()
	resp, decoded := post(t, srv, "/v1/discover", map[string]any{
		"html": "<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>",
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, decoded["error"])
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timed-out request took %v; the injected delay was not interrupted", elapsed)
	}
}

// TestChaosSingleflightDedup: concurrent identical requests share one
// pipeline run — followers wait on the leader and the dedup counter ticks.
func TestChaosSingleflightDedup(t *testing.T) {
	faults := faultinject.New()
	// Only the leader is delayed (Times: 1), holding the in-flight window
	// open while followers arrive.
	faults.Inject("httpapi/discover", faultinject.Fault{Delay: 500 * time.Millisecond, Times: 1})
	reg := obs.NewRegistry()
	srv := newChaosServer(t, Config{Metrics: reg, CacheSize: 8, Faults: faults})

	body := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>"}`
	leaderDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/discover", "application/json", strings.NewReader(body))
		if err != nil {
			leaderDone <- 0
			return
		}
		resp.Body.Close()
		leaderDone <- resp.StatusCode
	}()
	waitFired(t, faults, "httpapi/discover", 1)

	const followers = 4
	var wg sync.WaitGroup
	codes := make([]int, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/discover", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	if got := <-leaderDone; got != http.StatusOK {
		t.Fatalf("leader status = %d", got)
	}
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("follower %d status = %d", i, c)
		}
	}
	_, metrics := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, "boundary_cache_inflight_dedup_total") {
		t.Errorf("dedup counter missing after concurrent identical requests:\n%s", metrics)
	}
	// Exactly one pipeline run served all five requests.
	if got := faults.Fired("httpapi/discover"); got != 1 {
		t.Errorf("httpapi/discover fired %d times, want 1 (followers must not recompute)", got)
	}
}

// TestChaosSingleflightLeaderPanic: a single-flight leader whose pipeline
// panics loses its own connection (net/http's per-connection recover) but
// must not strand its key: a follower already waiting gets a 500 and a
// later identical request computes afresh, instead of either waiting on
// an in-flight entry nobody will ever complete.
func TestChaosSingleflightLeaderPanic(t *testing.T) {
	faults := faultinject.New()
	// The delay holds the leader in flight so a follower can join it before
	// the panic.
	faults.Inject("httpapi/discover", faultinject.Fault{Delay: 300 * time.Millisecond, Panic: "boom", Times: 1})
	reg := obs.NewRegistry()
	h, err := NewServer(Config{Metrics: reg, CacheSize: 8, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic is expected
	srv.Start()
	t.Cleanup(srv.Close)
	client := &http.Client{Timeout: 5 * time.Second}
	body := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>"}`
	send := func() (int, error) {
		resp, err := client.Post(srv.URL+"/v1/discover", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := send()
		leaderErr <- err
	}()
	waitFired(t, faults, "httpapi/discover", 1)
	followerCode, followerErr := send()
	if err := <-leaderErr; err == nil {
		t.Error("the panicking leader's request got a response; want its connection aborted")
	}
	if followerErr != nil {
		t.Fatalf("request arriving during the leader's run: %v", followerErr)
	}
	// Scheduled after the panic instead, the request led a fresh computation.
	joined := reg.Counter("boundary_cache_inflight_dedup_total", "").Value() == 1
	switch {
	case joined && followerCode != http.StatusInternalServerError:
		t.Errorf("follower of the panicking leader = %d, want 500", followerCode)
	case !joined && followerCode != http.StatusOK:
		t.Errorf("request after the panicking leader = %d, want 200", followerCode)
	}
	if code, err := send(); err != nil || code != http.StatusOK {
		t.Errorf("identical request after the panic = %d, %v; want 200", code, err)
	}
}

// TestChaosSingleflightLeaderCanceled forces the interleaving in which a
// single-flight leader dies with followers waiting on it: the leader is
// held in discovery until N followers have joined its call, then its
// request is canceled. Its 503 says nothing about the document, so the
// followers must take another lap: exactly one of them recomputes, all of
// them answer 200 with the bytes a fresh node computes, and the leader's
// 503 is never cached.
func TestChaosSingleflightLeaderCanceled(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("httpapi/discover", faultinject.Fault{Delay: 30 * time.Second, Times: 1})
	reg := obs.NewRegistry()
	h := NewHandler(Config{Metrics: reg, CacheSize: 8, Faults: faults})
	body := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>"}`
	serve := func(ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/discover", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- serve(leaderCtx) }()
	waitFired(t, faults, "httpapi/discover", 1)

	const followers = 4
	dedup := reg.Counter("boundary_cache_inflight_dedup_total", "")
	results := make([]*httptest.ResponseRecorder, followers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = serve(context.Background())
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for dedup.Value() < followers {
		if time.Now().After(deadline) {
			t.Fatalf("%v of %d followers joined the leader's call", dedup.Value(), followers)
		}
		runtime.Gosched()
	}
	cancelLeader()
	wg.Wait()

	if w := <-leader; w.Code != http.StatusServiceUnavailable {
		t.Errorf("canceled leader = %d, want 503", w.Code)
	}
	code, want := serveBody(NewHandler(Config{}), "/v1/discover", body)
	if code != http.StatusOK {
		t.Fatalf("fresh node = %d %q", code, want)
	}
	for i, w := range results {
		if w.Code != http.StatusOK || w.Body.String() != want {
			t.Errorf("follower %d = %d %q, want 200 %q", i, w.Code, w.Body, want)
		}
	}
	if got := faults.Fired("httpapi/discover"); got != 2 {
		t.Errorf("discovery ran %d times, want 2 (the dead leader, then exactly one follower)", got)
	}
	if w := serve(context.Background()); w.Code != http.StatusOK || w.Body.String() != want {
		t.Errorf("request after the lap = %d %q, want the cached 200", w.Code, w.Body)
	}
	if !metricValue(t, reg, "boundary_cache_entries 1\n") {
		t.Error("want exactly one cached entry, the followers' answer")
	}
}

// TestChaosBatchDocumentPanic: a panic while computing one batch document
// fails that document alone — it answers inline as a "discovery panicked"
// error, counted as outcome="error", while the batch answers 200 and the
// process lives. With the result cache the panic passes through the
// single-flight leader, which completes its call and re-panics; without it
// the pipeline's panic reaches the batch worker directly.
func TestChaosBatchDocumentPanic(t *testing.T) {
	for _, cacheSize := range []int{0, 8} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			faults := faultinject.New()
			faults.Inject("httpapi/discover", faultinject.Fault{Panic: "boom", Times: 1})
			reg := obs.NewRegistry()
			// One worker takes the documents in order, so the panic lands
			// on the first.
			srv := newChaosServer(t, Config{Metrics: reg, CacheSize: cacheSize, BatchWorkers: 1, Faults: faults})
			doc := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>"}`
			resp, err := http.Post(srv.URL+"/v1/discover/batch", "application/json",
				strings.NewReader(`{"documents":[`+doc+`,`+doc+`]}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out struct {
				Results []struct {
					Separator string `json:"separator"`
					Error     string `json:"error"`
				} `json:"results"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
				t.Fatalf("batch = %d with %d results, want 200 with 2", resp.StatusCode, len(out.Results))
			}
			if got := out.Results[0]; got.Error != "discovery panicked: faultinject: boom" || got.Separator != "" {
				t.Errorf("panicking document answered %+v, want the inline panic error", got)
			}
			if got := out.Results[1]; got.Error != "" || got.Separator != "hr" {
				t.Errorf("healthy document answered %+v, want separator hr", got)
			}
			for outcome, want := range map[string]float64{"error": 1, "ok": 1} {
				if got := reg.Counter("boundary_batch_documents_total", "", "outcome", outcome).Value(); got != want {
					t.Errorf("boundary_batch_documents_total{outcome=%q} = %v, want %v", outcome, got, want)
				}
			}
		})
	}
}

// TestChaosTemplateStoreDegraded: an armed template/lookup fault must not
// surface to clients — a request that would have been a wrapper-store hit
// silently pays full discovery instead, returning bytes identical to the
// healthy warm answer, and the degradation is visible only as
// boundary_template_lookup_errors_total. Clearing the fault restores the
// fast path.
func TestChaosTemplateStoreDegraded(t *testing.T) {
	faults := faultinject.New()
	reg := obs.NewRegistry()
	store, err := template.Open(template.Config{Metrics: reg, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := newChaosServer(t, Config{Metrics: reg, Templates: store})

	body, err := json.Marshal(map[string]any{"html": paperdoc.Figure2, "ontology": "obituary"})
	if err != nil {
		t.Fatal(err)
	}
	postBytes := func() (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/discover", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// Cold request learns the wrapper; healthy warm request is the reference.
	if code, _ := postBytes(); code != http.StatusOK {
		t.Fatalf("cold status = %d", code)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries after cold request, want 1", store.Len())
	}
	code, want := postBytes()
	if code != http.StatusOK {
		t.Fatalf("warm status = %d", code)
	}
	healthy := store.Stats()
	if healthy.Hits < 1 {
		t.Fatalf("healthy warm request did not hit the store: %+v", healthy)
	}

	faults.Inject(template.FaultLookup, faultinject.Fault{Err: fmt.Errorf("chaos: store down")})
	code, got := postBytes()
	if code != http.StatusOK {
		t.Fatalf("faulted status = %d, want 200 (fallback to full discovery)", code)
	}
	if string(got) != string(want) {
		t.Errorf("faulted response differs from healthy warm response:\n got %s\nwant %s", got, want)
	}
	faulted := store.Stats()
	if faulted.LookupErrors != healthy.LookupErrors+1 {
		t.Errorf("lookup errors %v, want %v", faulted.LookupErrors, healthy.LookupErrors+1)
	}
	if faulted.Hits != healthy.Hits {
		t.Errorf("faulted request counted as a hit: %+v", faulted)
	}

	// Fault cleared: the fast path resumes.
	faults.Remove(template.FaultLookup)
	code, got = postBytes()
	if code != http.StatusOK || string(got) != string(want) {
		t.Fatalf("post-fault response wrong: status %d", code)
	}
	if recovered := store.Stats(); recovered.Hits != faulted.Hits+1 {
		t.Errorf("fast path did not resume after the fault cleared: %+v", recovered)
	}
}
