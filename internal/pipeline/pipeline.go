// Package pipeline is the streaming bulk-ingestion engine: it fans an
// NDJSON document stream across a bounded worker pool running boundary
// discovery (reusing core.DiscoverContext and the PR-3 cancellation/limit
// semantics), retries transient failures with exponential backoff and
// jitter, restores input order on output, and checkpoints completed
// documents to an append-only journal so a killed run resumes without
// re-processing anything already durable.
//
// The engine is deliberately deterministic about what "done" means: an
// outcome is emitted to the sink strictly in input order, its bytes reach
// the output file before its journal entry is appended, and a canceled
// run's journal therefore describes exactly the prefix of work whose
// results are on disk. Resuming truncates each output file to its journaled
// offset (discarding at most one torn trailing line) and skips the
// journaled documents, making the resumed output byte-identical to an
// uninterrupted run over the same input.
//
// cmd/bulk wires the engine to files and directories; the HTTP surface
// exposes the same engine as POST /v1/discover/stream.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// RetryPolicy bounds how the engine retries a document that failed
// transiently (see Transient and Config.AttemptTimeout). Delays grow
// exponentially from BaseDelay, are capped at MaxDelay, and carry full
// jitter drawn from a per-(task, attempt) deterministic seed so runs are
// reproducible.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per document; <= 1 disables
	// retrying.
	MaxAttempts int
	// BaseDelay is the first retry's backoff ceiling (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 1s).
	MaxDelay time.Duration
}

// Attempts returns the effective total tries per document (at least 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the jittered sleep before the given retry (attempt is the
// 1-based attempt that just failed). It is exported so the fleet router's
// retry passes share the bulk engine's backoff shape instead of growing
// their own.
func (p RetryPolicy) Backoff(seq, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	maxD := p.MaxDelay
	if maxD <= 0 {
		maxD = time.Second
	}
	d := base << (attempt - 1)
	if d > maxD || d <= 0 {
		d = maxD
	}
	// Full jitter in [d/2, d], deterministic per (seq, attempt).
	r := rand.New(rand.NewSource(int64(seq)*7919 + int64(attempt)))
	return d/2 + time.Duration(r.Int63n(int64(d/2)+1))
}

// Config tunes one Engine.
type Config struct {
	// Workers bounds concurrent document processing; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Window bounds how many documents may be in flight or waiting in the
	// reorder buffer ahead of the next emission; <= 0 selects
	// max(16, 4*Workers). It is the engine's memory bound: output is in
	// input order, so a slow head-of-line document could otherwise pile up
	// unboundedly many completed results behind it.
	Window int
	// Retry governs transient-failure retries.
	Retry RetryPolicy
	// AttemptTimeout bounds one attempt's processing; an attempt that
	// exceeds it fails transiently (the run context staying alive) and is
	// retried under Retry. Zero disables it.
	AttemptTimeout time.Duration
	// Metrics receives boundary_bulk_* counters and, threaded through
	// core.Options, the per-stage pipeline series. Nil disables both.
	Metrics *obs.Registry
	// Trace, when non-nil, receives the per-stage spans of every document
	// (concurrently; obs.Trace is safe for that).
	Trace *obs.Trace
	// Limits bounds per-document parse resources, as on the HTTP surface.
	Limits tagtree.Limits
	// Faults is the test-only fault-injection hook set. The engine fires
	// "pipeline/attempt" before each attempt and threads the set into
	// core.Options for the pipeline-internal points.
	Faults *faultinject.Set
	// Templates, if non-nil, enables core's learned-wrapper fast path for
	// every document: a bulk corpus dominated by a handful of site
	// templates pays full discovery once per template (per option set)
	// and serves the rest from the store. See docs/WRAPPER.md.
	Templates *template.Store
	// Forward, if non-nil, answers each well-formed task in place of the
	// engine's own discovery: a fleet node's /v1/discover/stream forwards
	// the task to the member owning it. attempts > 1 is recorded on the
	// outcome and a non-nil err fails the document inline; Retry and
	// AttemptTimeout do not apply (the forwarder retries on its own).
	Forward func(ctx context.Context, t *Task) (res Result, attempts int, err error)
}

// Stats summarizes one Run.
type Stats struct {
	// Read counts tasks consumed from the source (including invalid lines).
	Read int
	// Skipped counts tasks the checkpoint journal proved already complete.
	Skipped int
	// OK counts documents that discovered a separator cleanly.
	OK int
	// Degraded counts documents answered by surviving heuristics only.
	Degraded int
	// Failed counts documents emitted with an inline error.
	Failed int
	// Canceled counts documents abandoned because the run context ended;
	// they are not journaled and will be re-processed by a resumed run.
	Canceled int
	// Retries counts individual retry sleeps across all documents.
	Retries int
}

// Engine runs bulk discovery; the zero value with a zero Config is usable.
type Engine struct {
	cfg  Config
	onts ontology.Cache // unbounded: one run's distinct ontologies
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg}
}

// errTransient marks retryable failures.
var errTransient = errors.New("transient")

// Transient wraps err so the engine's retry policy applies to it — the
// marker fault-injection and embedders use to request a retry.
func Transient(err error) error {
	return fmt.Errorf("%w: %w", errTransient, err)
}

// IsTransient reports whether err carries the Transient marker.
func IsTransient(err error) bool { return errors.Is(err, errTransient) }

// Run drains src through the worker pool into sink. When jr is non-nil,
// tasks it records as done are skipped and every emitted outcome is
// checkpointed; callers resuming a ShardedFileSink run should first call
// Truncate with jr.Offsets(). Run returns the run's statistics and the
// first of: a source read error, a sink/journal write error, or ctx's error
// when the run was canceled (the partial Stats are valid in every case).
func (e *Engine) Run(ctx context.Context, src Source, sink Sink, jr *Journal) (Stats, error) {
	runStart := time.Now()
	runSpan := e.cfg.Trace.StartSpan("bulk/run")
	defer func() {
		runSpan.End()
		e.cfg.Metrics.Histogram("boundary_bulk_run_duration_seconds",
			"Wall-clock duration of one bulk engine run.", nil).
			Observe(time.Since(runStart).Seconds())
	}()
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := e.cfg.Window
	if window <= 0 {
		window = 4 * workers
		if window < 16 {
			window = 16
		}
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var (
		read, skipped, ok, degraded, failed, canceled, retries atomic.Int64
		srcErr, emitErr                                        error
	)

	work := make(chan *Task)
	results := make(chan *Outcome, workers)
	tokens := make(chan struct{}, window)

	// Dispatcher: read the source, honor the reorder window, stop on cancel.
	go func() {
		defer close(work)
		for {
			t, err := src.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				srcErr = fmt.Errorf("pipeline: reading input: %w", err)
				cancelRun()
				return
			}
			read.Add(1)
			select {
			case tokens <- struct{}{}:
			case <-runCtx.Done():
				return
			}
			select {
			case work <- t:
			case <-runCtx.Done():
				return
			}
		}
	}()

	// Workers: process tasks (or recognize journaled ones), slotting
	// outcomes into the reorder stream.
	var wg sync.WaitGroup
	inflight := e.gauge("boundary_bulk_inflight",
		"Bulk documents currently being processed.")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per worker for the byte-level hot path: each attempt
			// resets and reuses it. NewResult copies the answer's slices and
			// maps out of the tree before the next task overwrites it, but
			// its strings are headers only — tag names may still view the
			// task's document — so an Outcome is valid only until the
			// emitter has written it and handed the document back.
			arena := tagtree.AcquireArena()
			defer arena.Release()
			for t := range work {
				var o *Outcome
				if jr != nil && jr.Done(t.Seq) {
					o = &Outcome{Seq: t.Seq, skipped: true}
					skipped.Add(1)
					e.countDocument("skipped")
				} else {
					inflight.Inc()
					o = e.process(runCtx, t, &retries, arena)
					inflight.Dec()
					switch {
					case o.canceled:
						canceled.Add(1)
						e.countDocument("canceled")
					case o.Error != "":
						failed.Add(1)
						e.countDocument("error")
					case o.Degraded:
						degraded.Add(1)
						e.countDocument("degraded")
					default:
						ok.Add(1)
						e.countDocument("ok")
					}
				}
				o.docBuf = t.docBuf
				results <- o
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	// Emitter: restore input order, write, then checkpoint. After a cancel
	// or write failure nothing further is written (or journaled), keeping
	// the journal an exact description of the bytes on disk. Every outcome
	// it passes — written, skipped or canceled — hands its document buffer
	// back: the worker is done with the task, and the sink has encoded the
	// outcome synchronously, so nothing views the document any longer.
	pending := make(map[int]*Outcome)
	next := 0
	for o := range results {
		pending[o.Seq] = o
		for {
			cur, ready := pending[next]
			if !ready {
				break
			}
			delete(pending, next)
			if !cur.skipped && !cur.canceled && emitErr == nil && runCtx.Err() == nil {
				file, end, err := sink.Write(cur)
				if err == nil && jr != nil {
					if err = jr.Append(cur.Seq, file, end); err == nil {
						e.counter("boundary_bulk_checkpoint_entries_total",
							"Checkpoint journal entries appended.").Inc()
					}
				}
				if err != nil {
					emitErr = err
					cancelRun()
				}
			}
			putDocBuf(cur.docBuf)
			next++
			select {
			case <-tokens:
			default:
			}
		}
	}

	stats := Stats{
		Read:     int(read.Load()),
		Skipped:  int(skipped.Load()),
		OK:       int(ok.Load()),
		Degraded: int(degraded.Load()),
		Failed:   int(failed.Load()),
		Canceled: int(canceled.Load()),
		Retries:  int(retries.Load()),
	}
	switch {
	case srcErr != nil:
		return stats, srcErr
	case emitErr != nil:
		return stats, emitErr
	case ctx.Err() != nil:
		return stats, ctx.Err()
	}
	return stats, nil
}

// process runs one document to completion: validation, ontology resolution,
// then up to Retry.MaxAttempts pipeline attempts with backoff between
// transient failures.
func (e *Engine) process(ctx context.Context, t *Task, retries *atomic.Int64, arena *tagtree.Arena) *Outcome {
	o := &Outcome{Seq: t.Seq, ID: t.TaskID(), Shard: t.Shard}
	if t.invalid != nil {
		o.Error = t.invalid.Error()
		return o
	}
	if t.Mode != "html" && t.Mode != "xml" {
		o.Error = fmt.Sprintf("unknown document mode %q", t.Mode)
		return o
	}
	if e.cfg.Forward != nil {
		res, attempts, err := e.cfg.Forward(ctx, t)
		switch {
		case ctx.Err() != nil:
			o.canceled = true
		case err != nil:
			o.Error = err.Error()
		default:
			o.Result = res
		}
		if attempts > 1 {
			o.Attempts = attempts
		}
		return o
	}
	ont, err := e.onts.Resolve(t.Ontology)
	if err != nil {
		o.Error = err.Error()
		return o
	}

	maxAttempts := e.cfg.Retry.Attempts()
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			o.canceled = true
			return o
		}
		res, err := e.attempt(ctx, t, ont, arena)
		if err == nil {
			o.Result = NewResult(res)
			if attempt > 1 {
				o.Attempts = attempt
			}
			return o
		}
		if ctx.Err() != nil {
			o.canceled = true
			return o
		}
		if attempt >= maxAttempts || !IsTransient(err) {
			o.Error = err.Error()
			if attempt > 1 {
				o.Attempts = attempt
			}
			return o
		}
		retries.Add(1)
		e.counter("boundary_bulk_retries_total",
			"Bulk document attempts retried after a transient failure.").Inc()
		timer := time.NewTimer(e.cfg.Retry.Backoff(t.Seq, attempt))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			o.canceled = true
			return o
		}
	}
}

// attempt runs one discovery pass under the per-attempt timeout, isolating
// panics and classifying an attempt-deadline expiry (run context still
// alive) as transient.
func (e *Engine) attempt(ctx context.Context, t *Task, ont *ontology.Ontology, arena *tagtree.Arena) (res *core.Result, err error) {
	actx := ctx
	if e.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, e.cfg.AttemptTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: attempt panicked: %v", r)
		}
		if err != nil && !IsTransient(err) &&
			errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			err = Transient(err)
		}
	}()
	if err := e.cfg.Faults.FireCtx(actx, "pipeline/attempt"); err != nil {
		return nil, err
	}
	opts := core.Options{
		Ontology:      ont,
		SeparatorList: t.SeparatorList,
		Metrics:       e.cfg.Metrics,
		Trace:         e.cfg.Trace,
		Limits:        e.cfg.Limits,
		Faults:        e.cfg.Faults,
		Arena:         arena,
	}
	if e.cfg.Templates != nil {
		mode := "html"
		if t.Mode == "xml" {
			mode = "xml"
		}
		opts.Templates = e.cfg.Templates
		// Same salt derivation as the HTTP surface, so bulk and serving
		// traffic share one template key space.
		opts.TemplateSalt = template.Salt(mode, t.Ontology, t.SeparatorList)
	}
	if t.Mode == "xml" {
		return core.DiscoverXMLContext(actx, t.Doc, opts)
	}
	return core.DiscoverContext(actx, t.Doc, opts)
}

func (e *Engine) countDocument(outcome string) {
	e.counter("boundary_bulk_documents_total",
		"Documents run through the bulk engine, by outcome.",
		"outcome", outcome).Inc()
}

func (e *Engine) counter(name, help string, labels ...string) *obs.Counter {
	return e.cfg.Metrics.Counter(name, help, labels...)
}

func (e *Engine) gauge(name, help string) *obs.Gauge {
	return e.cfg.Metrics.Gauge(name, help)
}
