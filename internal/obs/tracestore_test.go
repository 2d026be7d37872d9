package obs

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// finished returns a published-ready trace with the given status.
func finished(service, name, status string) *Trace {
	t := NewTrace()
	t.SetRoot(service, name)
	if status != "" && status != StatusOK {
		t.SetStatus(status, "test "+status)
	}
	t.Finish()
	return t
}

func TestTraceStoreKeepsEverythingByDefault(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	for i := 0; i < 5; i++ {
		s.Publish(finished("svc", "op", StatusOK))
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5 (no sampling configured)", s.Len())
	}
}

func TestTraceStoreHeadSampling(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 10, SlowFraction: -1})
	for i := 0; i < 100; i++ {
		s.Publish(finished("svc", "op", StatusOK))
	}
	if got := s.Len(); got != 10 {
		t.Errorf("kept %d of 100 healthy traces with SampleEvery=10, want 10", got)
	}
}

// TestTraceStoreAlwaysKeepsBadTraces: errored, degraded, and shed traces
// bypass head sampling entirely.
func TestTraceStoreAlwaysKeepsBadTraces(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 1000, SlowFraction: -1})
	s.Publish(finished("svc", "op", StatusOK)) // first healthy trace is kept
	var bad []TraceID
	for _, status := range []string{StatusError, StatusDegraded, StatusShed} {
		tr := finished("svc", "op", status)
		bad = append(bad, tr.ID())
		s.Publish(tr)
	}
	for i := 0; i < 50; i++ {
		s.Publish(finished("svc", "op", StatusOK))
	}
	for i, id := range bad {
		if _, ok := s.Get(id); !ok {
			t.Errorf("bad trace %d (%s) was sampled out; must always be kept", i, id)
		}
	}
	list := s.List()
	reasons := make(map[string]bool)
	for _, sum := range list {
		reasons[sum.Kept] = true
	}
	for _, want := range []string{"error", "degraded", "shed"} {
		if !reasons[want] {
			t.Errorf("no retained trace with keep reason %q in %v", want, reasons)
		}
	}
}

// TestTraceStoreKeepsSlowTail: once the recent-duration window is primed,
// a trace far above the latency tail is kept even under aggressive sampling.
func TestTraceStoreKeepsSlowTail(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 1000})
	for i := 0; i < 30; i++ {
		tr := finished("svc", "op", StatusOK)
		d := tr.Snapshot()
		d.Duration = time.Millisecond
		s.publish(d)
	}
	slow := finished("svc", "op", StatusOK)
	d := slow.Snapshot()
	d.Duration = time.Second
	s.publish(d)
	frags, ok := s.Get(slow.ID())
	if !ok {
		t.Fatal("slow-tail trace was sampled out; must always be kept")
	}
	if len(frags) != 1 {
		t.Errorf("fragments = %d, want 1", len(frags))
	}
	var sum *TraceSummary
	for _, row := range s.List() {
		if row.TraceID == slow.ID().String() {
			sum = &row
			break
		}
	}
	if sum == nil || sum.Kept != "slow" {
		t.Errorf("slow trace keep reason = %+v, want \"slow\"", sum)
	}
}

// rootTrace is a finished root fragment with the given ID and duration.
func rootTrace(i int, dur time.Duration) TraceData {
	return TraceData{TraceID: TraceID{1, byte(i), byte(i >> 8)}, Duration: dur}
}

// exactSlowCut is the slow-tail threshold recomputed from the whole window,
// as if the store sorted on every request.
func exactSlowCut(s *TraceStore) float64 {
	n := min(s.recentN, slowWindow)
	window := append([]float64(nil), s.recent[:n]...)
	slices.Sort(window)
	return window[min(int(float64(n)*(1-s.cfg.SlowFraction)), n-1)]
}

// TestTraceStoreSlowThresholdFollowsTraffic: the cached slow-tail threshold
// catches up with a shift in traffic within slowRecompute root publishes of
// the window's own threshold moving.
func TestTraceStoreSlowThresholdFollowsTraffic(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 1 << 30})
	for i := 0; i < slowWindow; i++ {
		s.publish(rootTrace(i, time.Millisecond))
	}
	const probe = 50 * time.Millisecond
	moved, followed := -1, -1
	for i := 0; i < slowWindow && followed < 0; i++ {
		s.publish(rootTrace(slowWindow+i, 100*time.Millisecond))
		if moved < 0 && probe.Seconds() < exactSlowCut(s) {
			moved = i
		}
		s.mu.Lock()
		slow := s.isSlow(probe)
		s.mu.Unlock()
		if !slow {
			followed = i
		}
	}
	if moved < 0 || followed < 0 {
		t.Fatalf("threshold never moved (window %d, cache %d)", moved, followed)
	}
	if followed < moved || followed-moved >= slowRecompute {
		t.Errorf("cached threshold followed the shift at publish %d, window moved at %d; want within %d",
			followed, moved, slowRecompute)
	}
}

// TestTraceStoreIsSlowDoesNotAllocate: a steady-state publish of a trace
// that head sampling drops allocates nothing, threshold recomputes included.
func TestTraceStoreIsSlowDoesNotAllocate(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 1 << 30})
	for i := 0; i < slowWindow; i++ {
		s.publish(rootTrace(i, time.Duration(i+1)*time.Millisecond))
	}
	probe := rootTrace(slowWindow, time.Millisecond)
	kept := s.Len()
	if allocs := testing.AllocsPerRun(4*slowRecompute, func() { s.publish(probe) }); allocs != 0 {
		t.Errorf("publish of an unsampled trace allocates %.1f times, want 0", allocs)
	}
	if s.Len() != kept {
		t.Fatalf("probe trace was kept (%d -> %d traces); the check must measure a dropped one", kept, s.Len())
	}
}

// TestTraceStoreMergesFragments: fragments published under one TraceID from
// different services merge into a single stored trace, and a late fragment of
// a kept trace is never sampled out.
func TestTraceStoreMergesFragments(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 1000, SlowFraction: -1})
	router := finished("router", "POST /v1/discover", StatusOK)
	s.Publish(router)
	// Burn the sampler so an independently-published trace would be dropped.
	for i := 0; i < 20; i++ {
		s.Publish(finished("svc", "op", StatusOK))
	}
	replica := NewTraceFrom(router.SpanContext())
	replica.SetRoot("local-1", "POST /v1/discover")
	replica.Finish()
	s.Publish(replica)

	frags, ok := s.Get(router.ID())
	if !ok {
		t.Fatal("merged trace missing from store")
	}
	if len(frags) != 2 {
		t.Fatalf("fragments = %d, want 2 (router + replica)", len(frags))
	}
	if frags[0].Service != "router" || frags[1].Service != "local-1" {
		t.Errorf("fragment services = %s, %s", frags[0].Service, frags[1].Service)
	}
	for _, row := range s.List() {
		if row.TraceID == router.ID().String() && row.Fragments != 2 {
			t.Errorf("summary fragments = %d, want 2", row.Fragments)
		}
	}
}

func TestTraceStoreEvictsOldestBeyondCapacity(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 3, SlowFraction: -1})
	var ids []TraceID
	for i := 0; i < 5; i++ {
		tr := finished("svc", "op", StatusOK)
		ids = append(ids, tr.ID())
		s.Publish(tr)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", s.Len())
	}
	for _, id := range ids[:2] {
		if _, ok := s.Get(id); ok {
			t.Errorf("oldest trace %s survived eviction", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := s.Get(id); !ok {
			t.Errorf("recent trace %s was evicted", id)
		}
	}
}

func TestTraceStoreHandlerListAndTree(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	parent := NewTrace()
	parent.SetRoot("router", "POST /v1/discover")
	hop := parent.StartSpan("cluster/peer/local-1")
	hop.End()
	parent.Finish()
	child := NewTraceFrom(parent.ChildContext(hop))
	child.SetRoot("local-1", "POST /v1/discover")
	child.Add("parse", time.Millisecond)
	child.Finish()
	s.Publish(parent)
	s.Publish(child)

	// JSON listing.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	if w.Code != 200 {
		t.Fatalf("list status = %d", w.Code)
	}
	var env struct {
		Published int `json:"published"`
		Kept      int `json:"kept"`
		Traces    []TraceSummary
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("list is not JSON: %v\n%s", err, w.Body)
	}
	if env.Published != 2 || env.Kept != 1 || len(env.Traces) != 1 {
		t.Errorf("published=%d kept=%d traces=%d, want 2/1/1", env.Published, env.Kept, len(env.Traces))
	}

	// Single-trace text tree: the replica fragment must nest under the
	// router's hop span.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?trace="+parent.ID().String(), nil))
	if w.Code != 200 {
		t.Fatalf("tree status = %d: %s", w.Code, w.Body)
	}
	tree := w.Body.String()
	hopLine, replicaLine := -1, -1
	for _, line := range strings.Split(tree, "\n") {
		if strings.Contains(line, "cluster/peer/local-1") {
			hopLine = indentOf(line)
		}
		if strings.Contains(line, "local-1 POST") {
			replicaLine = indentOf(line)
		}
	}
	if hopLine < 0 || replicaLine < 0 {
		t.Fatalf("tree missing hop or replica fragment:\n%s", tree)
	}
	if replicaLine <= hopLine {
		t.Errorf("replica fragment (indent %d) must nest under hop span (indent %d):\n%s",
			replicaLine, hopLine, tree)
	}

	// Unknown and malformed IDs.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET",
		"/debug/traces?trace=4bf92f3577b34da6a3ce929d0e0e4736", nil))
	if w.Code != 404 {
		t.Errorf("unknown trace status = %d, want 404", w.Code)
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?trace=nope", nil))
	if w.Code != 400 {
		t.Errorf("malformed trace id status = %d, want 400", w.Code)
	}
}

func indentOf(line string) int {
	return len(line) - len(strings.TrimLeft(line, " "))
}

func TestNilTraceStoreIsNoOp(t *testing.T) {
	var s *TraceStore
	s.Publish(NewTrace())
	if s.Len() != 0 || s.List() != nil {
		t.Error("nil store must be inert")
	}
	if _, ok := s.Get(TraceID{1}); ok {
		t.Error("nil store Get must miss")
	}
}
