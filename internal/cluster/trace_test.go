package cluster

// Distributed-tracing conformance: one routed request — including a hedged
// one — must publish one trace fragment from the entry node, carrying the
// routing spans, and one from every remote member it touched, under a
// single trace ID; /metrics/cluster must attribute every member's series
// with a distinct peer label; and ?explain=1 must report all five heuristic
// certainties, computed at the entry.

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// newTracedCluster builds an entry node (service "entry") routing over 3
// remote members on real HTTP servers ("local-0".."local-2"), all sharing
// one trace store so a test can read every fragment of a trace.
func newTracedCluster(t *testing.T, store *obs.TraceStore, mutate func(*Config)) (*testFleet, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{Metrics: reg}
	for i := 0; i < 3; i++ {
		name := "local-" + strconv.Itoa(i)
		member := httptest.NewServer(newNode(t, httpapi.Config{
			Metrics:   obs.NewRegistry(),
			Traces:    store,
			Service:   name,
			CacheSize: 64,
		}))
		t.Cleanup(member.Close)
		cfg.Peers = append(cfg.Peers, NewHTTPPeer(name, member.URL, nil))
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return newFleet(t, cfg, httpapi.Config{Traces: store, Service: "entry"}), reg
}

func TestRoutedRequestYieldsOneStitchedTrace(t *testing.T) {
	store := obs.NewTraceStore(obs.TraceStoreConfig{})
	router, _ := newTracedCluster(t, store, nil)

	w := postRouter(t, router, "/v1/discover", discoverBody(""))
	if w.Code != 200 {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	idText := w.Header().Get(obs.TraceIDHeader)
	if idText == "" {
		t.Fatal("routed response carries no X-Trace-ID header")
	}
	id, ok := obs.ParseTraceID(idText)
	if !ok {
		t.Fatalf("X-Trace-ID %q is not a trace id", idText)
	}
	frags, ok := store.Get(id)
	if !ok {
		t.Fatalf("trace %s not in the shared store", id)
	}
	if len(frags) != 2 {
		t.Fatalf("fragments = %d, want 2 (entry + member): %+v", len(frags), frags)
	}
	var routerFrag, replicaFrag *obs.TraceData
	for i := range frags {
		if frags[i].Service == "entry" {
			routerFrag = &frags[i]
		} else if strings.HasPrefix(frags[i].Service, "local-") {
			replicaFrag = &frags[i]
		}
	}
	if routerFrag == nil || replicaFrag == nil {
		t.Fatalf("missing entry or member fragment: %+v", frags)
	}
	if routerFrag.TraceID != id || replicaFrag.TraceID != id {
		t.Error("fragments carry different trace ids")
	}
	// The member's fragment must hang off the entry's peer-hop span, so the
	// rendered tree nests client → entry → member.
	var hopSpan *obs.Span
	for i := range routerFrag.Spans {
		if strings.HasPrefix(routerFrag.Spans[i].Name, "cluster/peer/") {
			hopSpan = &routerFrag.Spans[i]
		}
	}
	if hopSpan == nil {
		t.Fatalf("entry fragment has no cluster/peer span: %+v", routerFrag.Spans)
	}
	if replicaFrag.RemoteParent != hopSpan.ID {
		t.Errorf("replica remote parent = %s, want hop span %s", replicaFrag.RemoteParent, hopSpan.ID)
	}
	if hopSpan.Name != "cluster/peer/"+replicaFrag.Service {
		t.Errorf("hop span %q does not name the replica %q", hopSpan.Name, replicaFrag.Service)
	}
	tree := obs.RenderTraceTree(id, frags)
	if !strings.Contains(tree, "entry POST /v1/discover") ||
		!strings.Contains(tree, replicaFrag.Service+" POST /v1/discover") {
		t.Errorf("rendered tree missing a hop:\n%s", tree)
	}
}

// TestHedgedRequestStaysOneTrace: when the primary stalls and the hedge wins,
// the trace still has one ID, with a hop span per attempted peer and the
// winning replica's fragment stitched in.
func TestHedgedRequestStaysOneTrace(t *testing.T) {
	store := obs.NewTraceStore(obs.TraceStoreConfig{})
	faults := faultinject.New()
	router, _ := newTracedCluster(t, store, func(c *Config) {
		c.HedgeAfter = 100 * time.Millisecond
		c.Faults = faults
	})
	faults.Inject("cluster/peer", faultinject.Fault{Delay: 5 * time.Second, Times: 1})

	w := postRouter(t, router, "/v1/discover", discoverBody(""))
	if w.Code != 200 {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	id, ok := obs.ParseTraceID(w.Header().Get(obs.TraceIDHeader))
	if !ok {
		t.Fatal("hedged response carries no trace id")
	}
	frags, ok := store.Get(id)
	if !ok {
		t.Fatal("hedged trace not stored")
	}
	var routerFrag *obs.TraceData
	replicaServices := map[string]bool{}
	for i := range frags {
		if frags[i].Service == "entry" {
			routerFrag = &frags[i]
		} else {
			replicaServices[frags[i].Service] = true
		}
	}
	if routerFrag == nil {
		t.Fatal("no entry fragment")
	}
	hops := 0
	for _, s := range routerFrag.Spans {
		if strings.HasPrefix(s.Name, "cluster/peer/") {
			hops++
		}
	}
	if hops != 2 {
		t.Errorf("entry recorded %d hop spans, want 2 (primary + hedge)", hops)
	}
	// The winning (unstalled) replica's fragment must be present; the stalled
	// primary may or may not publish before the request ends, but whatever
	// fragments exist share the one trace ID.
	if len(replicaServices) < 1 {
		t.Errorf("no replica fragment stitched into hedged trace: %+v", frags)
	}
	for i := range frags {
		if frags[i].TraceID != id {
			t.Errorf("fragment %d has trace id %s, want %s", i, frags[i].TraceID, id)
		}
	}
}

func TestClusterMetricsFederatesDistinctPeers(t *testing.T) {
	store := obs.NewTraceStore(obs.TraceStoreConfig{})
	router, _ := newTracedCluster(t, store, nil)

	// Touch every replica so each registry has request series.
	for i := 0; i < 8; i++ {
		postRouter(t, router, "/v1/discover", discoverBody(strconv.Itoa(i)))
	}
	req := httptest.NewRequest("GET", "/metrics/cluster", nil)
	w := httptest.NewRecorder()
	router.ServeClusterMetrics(w, req)
	if w.Code != 200 {
		t.Fatalf("/metrics/cluster status = %d: %s", w.Code, w.Body)
	}
	body := w.Body.Bytes()
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("federated output is not valid exposition: %v\n%s", err, body)
	}
	got := string(body)
	for _, peer := range []string{"router", "local-0", "local-1", "local-2"} {
		if !strings.Contains(got, `peer="`+peer+`"`) {
			t.Errorf("federated output missing peer label %q:\n%s", peer, got)
		}
	}
}

// TestExplainPropagatesThroughCluster: ?explain=1 through a fleet is answered
// at the entry — it is uncached and the same on every node — so no member
// is asked.
func TestExplainPropagatesThroughCluster(t *testing.T) {
	store := obs.NewTraceStore(obs.TraceStoreConfig{})
	router, reg := newTracedCluster(t, store, nil)

	w := postRouter(t, router, "/v1/discover?explain=1", discoverBody(""))
	if w.Code != 200 {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Separator string `json:"separator"`
		Explain   *struct {
			Formula    string `json:"formula"`
			Heuristics []struct {
				Name      string  `json:"name"`
				Declined  bool    `json:"declined"`
				Certainty float64 `json:"certainty"`
			} `json:"heuristics"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, w.Body)
	}
	if resp.Explain == nil {
		t.Fatalf("?explain=1 through the router returned no explain block:\n%s", w.Body)
	}
	names := map[string]bool{}
	for _, h := range resp.Explain.Heuristics {
		names[h.Name] = true
		if !h.Declined && h.Certainty <= 0 && h.Name != "OM" {
			// OM legitimately declines without an ontology; the request
			// carries one, so every heuristic should rank or decline with a
			// reason — a zero certainty without declining means rank-miss,
			// which Figure 2 should not produce.
			t.Errorf("heuristic %s: neither declined nor contributing (certainty %v)", h.Name, h.Certainty)
		}
	}
	for _, want := range []string{"OM", "RP", "SD", "IT", "HT"} {
		if !names[want] {
			t.Errorf("explain block missing heuristic %s: %v", want, names)
		}
	}
	if !strings.Contains(resp.Explain.Formula, "CF = ") {
		t.Errorf("formula %q does not spell out the combination", resp.Explain.Formula)
	}
	if resp.Separator != "hr" {
		t.Errorf("separator = %q, want hr", resp.Separator)
	}
	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exposition.String(), "boundary_cluster_requests_total") {
		t.Errorf("?explain=1 was routed to a member:\n%s", exposition.String())
	}

	// Byte-level conformance guard: the same request without explain must not
	// change shape (explain is strictly opt-in).
	w2 := postRouter(t, router, "/v1/discover", discoverBody(""))
	if strings.Contains(w2.Body.String(), "explain") {
		t.Errorf("plain response leaked an explain block:\n%s", w2.Body)
	}
}
