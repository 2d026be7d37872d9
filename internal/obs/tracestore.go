package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// TraceStoreConfig tunes a TraceStore. The zero value gives sane defaults.
type TraceStoreConfig struct {
	// Capacity bounds the number of distinct traces retained; the oldest is
	// evicted first. Default 512.
	Capacity int
	// SampleEvery keeps one in N unremarkable traces (ok status, not in the
	// slow tail). 0 or 1 keeps every trace; tail-kept traces — errored,
	// degraded, shed, or slowest-percentile — are always retained regardless.
	SampleEvery int
	// SlowFraction is the fraction of recent traces considered the "slow
	// tail" and always kept (0 means the default 0.10; negative disables
	// slow-tail keeping).
	SlowFraction float64
}

// slowWindow is how many recent durations feed the slow-tail threshold.
const slowWindow = 256

// slowRecompute is how many root durations the store takes in between
// recomputing the slow-tail threshold from the window.
const slowRecompute = 16

// TraceStore is a bounded in-memory store of finished traces with tail
// sampling: traces whose status is error, shed or degraded are always kept,
// as are those in the slowest percentile of recent traffic; the rest are
// head-sampled one-in-N. Fragments published from different services under
// one TraceID merge into a single stored trace, and a fragment of an
// already-stored trace is always kept so distributed traces never arrive
// half-sampled. A nil *TraceStore is a valid no-op sink.
type TraceStore struct {
	cfg TraceStoreConfig

	mu      sync.Mutex
	traces  map[TraceID]*storedTrace
	order   []TraceID // insertion order, oldest first
	recent  [slowWindow]float64
	recentN int // total durations ever pushed
	// slowAt is the recentN at which slowCut, the slow-tail threshold in
	// seconds, was last computed (sorting into slowSort); 0 means never.
	slowAt    int
	slowCut   float64
	slowSort  [slowWindow]float64
	published int
	kept      int
	sampled   int // dropped by head sampling
}

// storedTrace is one trace's merged fragments plus why it was kept.
type storedTrace struct {
	fragments []TraceData
	reason    string // "error", "degraded", "shed", "slow", "sampled"
}

// NewTraceStore returns an empty store.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	if cfg.SlowFraction == 0 {
		cfg.SlowFraction = 0.10
	}
	return &TraceStore{cfg: cfg, traces: make(map[TraceID]*storedTrace)}
}

// Publish offers a finished trace to the store. Both receiver and argument
// may be nil.
func (s *TraceStore) Publish(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.publish(t.Snapshot())
}

func (s *TraceStore) publish(d TraceData) {
	if d.TraceID.IsZero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.published++

	if st, ok := s.traces[d.TraceID]; ok {
		// A later fragment of a kept trace always merges in: a distributed
		// trace must not lose its remote halves to sampling.
		st.fragments = append(st.fragments, d)
		s.pushDuration(d)
		return
	}

	reason := ""
	switch d.Status {
	case StatusError:
		reason = "error"
	case StatusDegraded:
		reason = "degraded"
	case StatusShed:
		reason = "shed"
	}
	if reason == "" && s.cfg.SlowFraction > 0 && s.isSlow(d.Duration) {
		reason = "slow"
	}
	s.pushDuration(d)
	if reason == "" {
		if s.cfg.SampleEvery > 1 && s.kept > 0 && (s.published-1)%s.cfg.SampleEvery != 0 {
			s.sampled++
			return
		}
		reason = "sampled"
	}

	s.kept++
	s.traces[d.TraceID] = &storedTrace{fragments: []TraceData{d}, reason: reason}
	s.order = append(s.order, d.TraceID)
	for len(s.order) > s.cfg.Capacity {
		delete(s.traces, s.order[0])
		s.order = s.order[1:]
	}
}

// pushDuration records a duration in the recent-traffic window. Only root
// fragments (no remote parent) count, so one distributed request is one
// sample however many hops it made.
func (s *TraceStore) pushDuration(d TraceData) {
	if !d.RemoteParent.IsZero() {
		return
	}
	s.recent[s.recentN%slowWindow] = d.Duration.Seconds()
	s.recentN++
}

// isSlow reports whether dur falls in the slowest SlowFraction of the
// recent-traffic window. With fewer than 20 samples there is no meaningful
// tail yet and nothing is considered slow. The threshold is recomputed only
// every slowRecompute root durations, into the store's own sort buffer, so
// a request neither sorts nor allocates under the lock.
func (s *TraceStore) isSlow(dur time.Duration) bool {
	n := min(s.recentN, slowWindow)
	if n < 20 {
		return false
	}
	if s.slowAt == 0 || s.recentN-s.slowAt >= slowRecompute {
		window := s.slowSort[:n]
		copy(window, s.recent[:n])
		slices.Sort(window)
		idx := int(float64(n) * (1 - s.cfg.SlowFraction))
		if idx >= n {
			idx = n - 1
		}
		s.slowCut = window[idx]
		s.slowAt = s.recentN
	}
	return dur.Seconds() >= s.slowCut
}

// Len returns the number of traces currently retained.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Get returns the merged fragments of one trace, in arrival order.
func (s *TraceStore) Get(id TraceID) ([]TraceData, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.traces[id]
	if !ok {
		return nil, false
	}
	return append([]TraceData(nil), st.fragments...), true
}

// TraceSummary is one row of the /debug/traces listing.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Service    string    `json:"service"`
	Name       string    `json:"name"`
	Status     string    `json:"status"`
	StatusMsg  string    `json:"status_msg,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	Fragments  int       `json:"fragments"`
	Kept       string    `json:"kept"` // why tail sampling retained it
}

// summarize builds the listing row for one stored trace. The first root
// fragment (no remote parent) names the trace; status is the worst across
// fragments.
func summarize(id TraceID, st *storedTrace) TraceSummary {
	sum := TraceSummary{TraceID: id.String(), Kept: st.reason}
	root := st.fragments[0]
	for _, f := range st.fragments {
		if f.RemoteParent.IsZero() {
			root = f
			break
		}
	}
	sum.Service, sum.Name = root.Service, root.Name
	sum.Start = root.Start
	sum.DurationMS = float64(root.Duration) / float64(time.Millisecond)
	sum.Status = root.Status
	sum.StatusMsg = root.StatusMsg
	for _, f := range st.fragments {
		sum.Fragments++
		sum.Spans += len(f.Spans) + 1 // + the fragment root span
		if statusRank(f.Status) > statusRank(sum.Status) {
			sum.Status, sum.StatusMsg = f.Status, f.StatusMsg
		}
	}
	return sum
}

// List returns summaries of the retained traces, newest first.
func (s *TraceStore) List() []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		out = append(out, summarize(id, s.traces[id]))
	}
	return out
}

// traceList is the JSON envelope of the /debug/traces listing.
type traceList struct {
	Published int            `json:"published"`
	Kept      int            `json:"kept"`
	Sampled   int            `json:"sampled_out"`
	Traces    []TraceSummary `json:"traces"`
}

// Handler serves the store for debugging: GET /debug/traces lists retained
// traces as JSON (newest first, with sampling totals), and
// GET /debug/traces?trace=<id> renders one trace as a plain-text span tree
// stitched across its fragments.
func (s *TraceStore) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if q := r.URL.Query().Get("trace"); q != "" {
			id, ok := ParseTraceID(q)
			if !ok {
				http.Error(w, "malformed trace id", http.StatusBadRequest)
				return
			}
			frags, ok := s.Get(id)
			if !ok {
				http.Error(w, "trace not found (evicted or sampled out)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, RenderTraceTree(id, frags))
			return
		}
		s.mu.Lock()
		env := traceList{Published: s.published, Kept: s.kept, Sampled: s.sampled}
		s.mu.Unlock()
		env.Traces = s.List()
		if env.Traces == nil {
			env.Traces = []TraceSummary{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(env)
	})
}

// treeNode is one rendered span (or fragment root) and its children.
type treeNode struct {
	label    string
	children []*treeNode
}

// RenderTraceTree renders a trace's fragments as an indented span tree:
// fragments nest under the span in the calling process that spawned them
// (their remote parent), and spans nest under their parent span. Orphans —
// fragments whose remote parent was dropped or never published — render at
// top level, marked as detached.
func RenderTraceTree(id TraceID, frags []TraceData) string {
	byRoot := make(map[SpanID]*treeNode) // fragment root span id → node
	spanNodes := make(map[SpanID]*treeNode)
	fragNodes := make([]*treeNode, len(frags))

	for i, f := range frags {
		status := ""
		if f.Status != "" && f.Status != StatusOK {
			status = " [" + f.Status
			if f.StatusMsg != "" {
				status += ": " + f.StatusMsg
			}
			status += "]"
		}
		n := &treeNode{label: fmt.Sprintf("%s %s %s%s %s",
			f.Service, f.Name, f.Duration, status, attrString(f.RootAttrs))}
		n.label = strings.TrimRight(n.label, " ")
		fragNodes[i] = n
		byRoot[f.Root] = n
		for j := range f.Spans {
			sp := &f.Spans[j]
			st := ""
			if sp.Status != "" && sp.Status != StatusOK {
				st = " [" + sp.Status + "]"
			}
			sn := &treeNode{label: strings.TrimRight(fmt.Sprintf("%s %s%s %s",
				sp.Name, sp.Duration, st, attrString(sp.Attrs)), " ")}
			spanNodes[sp.ID] = sn
		}
	}
	// Parent each span under its parent span, or under its fragment root.
	for i, f := range frags {
		for j := range f.Spans {
			sp := &f.Spans[j]
			child := spanNodes[sp.ID]
			if p, ok := spanNodes[sp.Parent]; ok && p != child {
				p.children = append(p.children, child)
			} else {
				fragNodes[i].children = append(fragNodes[i].children, child)
			}
		}
	}
	// Parent each non-root fragment under its remote parent span.
	var roots []*treeNode
	for i, f := range frags {
		if f.RemoteParent.IsZero() {
			roots = append(roots, fragNodes[i])
			continue
		}
		if p, ok := spanNodes[f.RemoteParent]; ok {
			p.children = append(p.children, fragNodes[i])
		} else if p, ok := byRoot[f.RemoteParent]; ok {
			p.children = append(p.children, fragNodes[i])
		} else {
			fragNodes[i].label += " (detached)"
			roots = append(roots, fragNodes[i])
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d fragment(s))\n", id, len(frags))
	for _, r := range roots {
		renderNode(&b, r, 0)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *treeNode, depth int) {
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), n.label)
	for _, c := range n.children {
		renderNode(b, c, depth+1)
	}
}
