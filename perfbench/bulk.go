package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/pipeline"
	"repro/internal/tagtree"
)

// bulkRunner drives the NDJSON bulk engine behind cmd/bulk and
// /v1/discover/stream. armed lines name their domain's built-in ontology
// (the paper's ORSIH configuration); unarmed lines name none, so OM
// declines and the recognizer never runs.
type bulkRunner struct {
	armed bool
	pass  []*page
	input []byte // one pass as NDJSON
	warm  []*page
	wired []byte // the warm-up pass as NDJSON

	metrics *obs.Registry
	eng     *pipeline.Engine
}

func newBulkRunner(seed int64, armed bool) (*bulkRunner, error) {
	b := &bulkRunner{armed: armed, pass: bulkPass(seed)}
	b.warm = warmPages(b.pass)
	var err error
	if b.input, err = ndjson(b.pass, armed); err != nil {
		return nil, err
	}
	if b.wired, err = ndjson(b.warm, armed); err != nil {
		return nil, err
	}
	return b, nil
}

// setUp builds the engine the way cmd/bulk does by default and runs the
// warm-up pass through it — the first page and the long listing of every
// site — which compiles the ontologies' rules and fills the arena and
// scratch pools.
func (b *bulkRunner) setUp() (time.Duration, error) {
	start := time.Now()
	b.metrics = obs.NewRegistry()
	b.eng = pipeline.New(pipeline.Config{
		Metrics: b.metrics,
		Retry:   pipeline.RetryPolicy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second},
	})
	if _, err := b.run(b.wired, b.warm, 0, nil); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(start), nil
}

// measure runs whole passes through the engine until d has elapsed.
func (b *bulkRunner) measure(d time.Duration, rec *recorder) (*phase, error) {
	return b.run(b.input, b.pass, d, rec)
}

// run streams passes of input through one engine run, stopping at the
// first pass boundary after d.
func (b *bulkRunner) run(input []byte, pages []*page, d time.Duration, rec *recorder) (*phase, error) {
	src := &timedSource{
		inner: pipeline.NewNDJSONSource(&loopReader{data: input}, 0),
		pass:  len(pages),
		limit: d,
		rec:   rec,
	}
	ph := &phase{period: len(pages)}
	sink := &checkSink{src: src, inner: pipeline.NewWriterSink(io.Discard, nil), pages: pages, ph: ph, rec: rec}
	rs := snapshotRuntime()
	ph.start = time.Now()
	src.start = ph.start
	stats, err := b.eng.Run(context.Background(), src, sink, nil)
	ph.elapsed = time.Since(ph.start)
	ph.since(rs)
	if err != nil {
		return nil, fmt.Errorf("bulk run: %w", err)
	}
	if stats.Read != ph.attempted {
		return nil, fmt.Errorf("engine read %d documents but the sink received %d", stats.Read, ph.attempted)
	}
	return ph, nil
}

// loopReader replays data forever, so a source over it yields pass after
// pass.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// handover is when the source handed a task to the engine.
type handover struct {
	at    time.Time
	root  int64 // id of the document's span
	start int64 // recorder time the document's span began
}

// handoverRing bounds the tasks between source and sink. The engine's
// reorder window (16 on two workers) keeps far fewer in flight.
const handoverRing = 1024

// timedSource hands the engine NDJSON tasks, recording when each was
// handed over, and ends the stream at the first pass boundary after limit.
type timedSource struct {
	inner *pipeline.NDJSONSource
	pass  int
	limit time.Duration
	start time.Time
	rec   *recorder
	n     int

	mu     sync.Mutex
	handed [handoverRing]handover
}

func (s *timedSource) Next() (*pipeline.Task, error) {
	if s.n > 0 && s.n%s.pass == 0 && time.Since(s.start) >= s.limit {
		return nil, io.EOF
	}
	begin := s.rec.now()
	root := s.rec.newID()
	t, err := s.inner.Next()
	if err != nil {
		return nil, err
	}
	at := time.Now()
	s.rec.add(int64(t.Seq), s.rec.newID(), root, "pipeline.source_next", begin, s.rec.now())
	s.n++
	s.mu.Lock()
	s.handed[t.Seq%handoverRing] = handover{at: at, root: root, start: begin}
	s.mu.Unlock()
	return t, nil
}

func (s *timedSource) handover(seq int) handover {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handed[seq%handoverRing]
}

// checkSink receives outcomes in input order, times each from its
// handover, checks its separator against the page's ground truth, and
// encodes it as the NDJSON line a stream client would read.
type checkSink struct {
	src   *timedSource
	inner *pipeline.WriterSink
	pages []*page
	ph    *phase
	rec   *recorder
}

func (k *checkSink) Write(o *pipeline.Outcome) (string, int64, error) {
	h := k.src.handover(o.Seq)
	now := time.Now()
	p := k.pages[o.Seq%len(k.pages)]
	k.ph.attempted++
	if o.Error == "" {
		k.ph.samples = append(k.ph.samples, sample{done: now, lat: now.Sub(h.at), bytes: len(p.html)})
	}
	if o.Error != "" || !p.doc.IsCorrect(o.Separator) {
		k.ph.failed++
	}
	ws := k.rec.now()
	file, end, err := k.inner.Write(o)
	k.rec.add(int64(o.Seq), k.rec.newID(), h.root, "pipeline.sink_write", ws, k.rec.now())
	k.rec.add(int64(o.Seq), h.root, 0, "pipeline.doc", h.start, k.rec.now())
	return file, end, err
}

func (k *checkSink) Close() error { return nil }

// ledger times core.DiscoverBytesContext on every page of one pass, as the
// engine's workers call it, and replays the same discovery as separate
// calls into each layer. Trace ids start at firstTrace.
func (b *bulkRunner) ledger(rec *recorder, firstTrace int64) (*ledgerTotals, error) {
	arena := tagtree.AcquireArena()
	defer arena.Release()
	lt := &ledgerTotals{ops: len(b.pass)}
	for i, p := range b.pass {
		var ont *ontology.Ontology
		if b.armed {
			ont = ontology.Builtin(string(p.domain()))
		}
		if err := discoverAndReplay(rec, firstTrace+int64(i), 0, p, ont, b.metrics, arena, lt); err != nil {
			return nil, err
		}
	}
	return lt, nil
}

// perLayer derives the bulk workloads' per-layer metrics.
func (b *bulkRunner) perLayer(plain, withSpans *phase, rec *recorder, lt *ledgerTotals) map[string]float64 {
	t := rec.totals()
	m := lt.metrics(t, t.dur[spanDiscover])
	docs := float64(withSpans.completed())
	m["pipeline.source_next_us"] = t.self["pipeline.source_next"] / docs / 1e3
	m["pipeline.sink_write_us"] = t.self["pipeline.sink_write"] / docs / 1e3
	// The engine's workers had GOMAXPROCS processors for the untraced
	// phase; the share of that capacity discovery itself does not use is
	// the engine's overhead.
	capacity := float64(plain.elapsed) * float64(runtime.GOMAXPROCS(0))
	m["pipeline.overhead_share"] = 1 - float64(plain.completed())*lt.meanDiscoverNS(t)/capacity
	return m
}

// discoverAndReplay runs discovery on one page through core, then through
// the ledger replay, and checks that the two agree. parent is the span
// both roots hang under (0 for none).
func discoverAndReplay(rec *recorder, trace, parent int64, p *page, ont *ontology.Ontology, metrics *obs.Registry, arena *tagtree.Arena, lt *ledgerTotals) error {
	opts := core.Options{Ontology: ont, Metrics: metrics, Arena: arena}
	raw := []byte(p.html)
	start := rec.now()
	res, err := core.DiscoverBytesContext(context.Background(), raw, opts)
	rec.record(trace, parent, spanDiscover, start)
	if err != nil {
		return fmt.Errorf("discover %s/%d: %w", p.doc.Site.Name, p.doc.Index, err)
	}
	// The replay reuses the arena, so copy the answer out first.
	want := strings.Clone(res.Separator)
	got, err := replayLayers(rec, trace, parent, p.html, ont, arena, lt)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("ledger replay of %s/%d chose %q, core chose %q", p.doc.Site.Name, p.doc.Index, got, want)
	}
	return nil
}
