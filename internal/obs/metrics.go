// Package obs is the pipeline's observability layer: a concurrency-safe
// metrics registry with Prometheus text-format exposition, per-stage trace
// spans for one Discover call, and structured HTTP request logging with
// generated request IDs. It is stdlib-only by design — the repo's no-new-deps
// rule extends to operational tooling — and every type tolerates a nil
// receiver so instrumented code needs no "is observability on?" branches.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency-histogram bucket upper bounds, in
// seconds. They match the conventional Prometheus client defaults so
// dashboards written against other services carry over.
var DefBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// StageBuckets are bucket bounds for in-process pipeline stages — tag-tree
// build, a single heuristic's ranking — which complete in microseconds to
// milliseconds on Figure-2-sized documents, well under DefBuckets' floor.
// Shared by every stage histogram so per-heuristic latencies compare
// directly.
var StageBuckets = []float64{
	.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005,
	.01, .025, .05, .1, .25, 1,
}

// Registry holds named metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry. A nil *Registry is
// a valid no-op sink: every lookup returns a nil metric whose methods do
// nothing, so callers may thread an optional registry without nil checks.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// index maps seriesHash(type, name, labels as the caller passed them)
	// to an *indexEntry chain, so looking up an existing series takes no
	// registry-wide lock and allocates nothing. Entries are added under mu
	// when a lookup first misses.
	index sync.Map
}

// indexEntry is one lookup key of the index and the metric it resolves to.
// Label orders that render to the same series get entries of their own
// pointing at one metric.
type indexEntry struct {
	typ, name string
	labels    []string // as the caller passed them
	value     any
	next      *indexEntry // hash collisions
}

func (e *indexEntry) matches(typ, name string, labels []string) bool {
	if e.typ != typ || e.name != name || len(e.labels) != len(labels) {
		return false
	}
	for i, l := range labels {
		if e.labels[i] != l {
			return false
		}
	}
	return true
}

// seriesHash is FNV-1a over the type, name and labels, each terminated by
// a 0xff byte (which no UTF-8 string contains).
func seriesHash(typ, name string, labels []string) uint64 {
	h := fnvAdd(fnvAdd(14695981039346656037, typ), name)
	for _, l := range labels {
		h = fnvAdd(h, l)
	}
	return h
}

func fnvAdd(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return (h ^ 0xff) * prime
}

// lookup returns the metric indexed under the key, or nil.
func (r *Registry) lookup(h uint64, typ, name string, labels []string) any {
	v, ok := r.index.Load(h)
	if !ok {
		return nil
	}
	for e := v.(*indexEntry); e != nil; e = e.next {
		if e.matches(typ, name, labels) {
			return e.value
		}
	}
	return nil
}

// family is one metric name: its metadata plus one series per label set.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	buckets []float64
	series  map[string]*series // keyed by rendered label string
}

type series struct {
	pairs [][2]string // sorted label key/value pairs
	value any         // *Counter, *Gauge or *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelPairs normalizes alternating key, value, key, value... arguments into
// sorted pairs. An unpaired trailing key gets an empty value.
func labelPairs(labels []string) [][2]string {
	if len(labels)%2 != 0 {
		labels = append(labels, "")
	}
	pairs := make([][2]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, [2]string{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	return pairs
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// renderLabels renders sorted pairs (plus any extras, appended last) as
// {k="v",...}, or "" for an empty set.
func renderLabels(pairs [][2]string, extra ...[2]string) string {
	all := append(append([][2]string{}, pairs...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// metric returns (creating if needed) the series for name+labels, checking
// that the family's type matches. Registering the same name under two
// different types is a programming error and panics. A series that exists
// is found in the index without locking or allocating; the first lookup
// under a new key takes mu.
func (r *Registry) metric(name, help, typ string, buckets []float64, labels []string) any {
	h := seriesHash(typ, name, labels)
	if v := r.lookup(h, typ, name, labels); v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.lookup(h, typ, name, labels); v != nil {
		return v
	}
	v := r.create(name, help, typ, buckets, labels)
	e := &indexEntry{typ: typ, name: name, labels: append([]string(nil), labels...), value: v}
	if head, ok := r.index.Load(h); ok {
		e.next = head.(*indexEntry)
	}
	r.index.Store(h, e)
	return v
}

// create returns (creating if needed) the series for name+labels in the
// family map. r.mu must be held.
func (r *Registry) create(name, help, typ string, buckets []float64, labels []string) any {
	pairs := labelPairs(labels)
	key := renderLabels(pairs)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{pairs: pairs}
		switch typ {
		case "counter":
			s.value = &Counter{}
		case "gauge":
			s.value = &Gauge{}
		case "histogram":
			s.value = newHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s.value
}

// Counter returns the counter for name and the given alternating
// key, value label arguments, creating it on first use. help is recorded on
// first registration of the name. A nil registry returns a nil no-op counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.metric(name, help, "counter", nil, labels).(*Counter)
}

// Gauge is the gauge analogue of Counter.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.metric(name, help, "gauge", nil, labels).(*Gauge)
}

// Histogram returns the fixed-bucket histogram for name+labels. buckets are
// upper bounds in ascending order; nil means DefBuckets. The bucket layout is
// fixed by the first registration of the name.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.metric(name, help, "histogram", buckets, labels).(*Histogram)
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increases the counter by d; negative deltas are ignored.
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	addFloat(&c.bits, d)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases (or, for negative d, decreases) the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds d to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets (cumulative "le" buckets
// in the exposition, like Prometheus client histograms).
type Histogram struct {
	buckets []float64       // upper bounds, ascending
	counts  []atomic.Uint64 // per-bucket counts; last entry is +Inf
	sum     atomic.Uint64   // float64 bits
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with v <= le
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in deterministic sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot every family's series under the lock: a scrape that
	// overlaps the creation of a new label series must not read the series
	// map while Registry.metric writes it. Values are read atomically after.
	type seriesRef struct {
		key string
		s   *series
	}
	type famSnap struct {
		f      *family
		series []seriesRef
	}
	r.mu.Lock()
	fams := make([]famSnap, 0, len(r.families))
	for _, f := range r.families {
		snap := famSnap{f: f, series: make([]seriesRef, 0, len(f.series))}
		for k, s := range f.series {
			snap.series = append(snap.series, seriesRef{k, s})
		}
		fams = append(fams, snap)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].f.name < fams[j].f.name })

	var b strings.Builder
	for _, snap := range fams {
		f := snap.f
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		sort.Slice(snap.series, func(i, j int) bool { return snap.series[i].key < snap.series[j].key })
		for _, ref := range snap.series {
			k, s := ref.key, ref.s
			switch v := s.value.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatFloat(v.Value()))
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatFloat(v.Value()))
			case *Histogram:
				var cum uint64
				for i, le := range v.buckets {
					cum += v.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, renderLabels(s.pairs, [2]string{"le", formatFloat(le)}), cum)
				}
				cum += v.counts[len(v.buckets)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					f.name, renderLabels(s.pairs, [2]string{"le", "+Inf"}), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, k, formatFloat(v.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, k, cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
