package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// handleDiscoverStream is the bulk engine's serving surface: the request
// body is an NDJSON task stream (the /v1/discover envelope plus optional
// "id" and "shard" labels, one document per line) and the response streams
// one NDJSON outcome per document, in input order, flushed as each completes.
//
// Backpressure is structural: the engine reads the body only as fast as its
// worker pool and reorder window allow, so a slow server throttles the
// sender through TCP instead of buffering the corpus; the stream occupies
// one slot of the -max-inflight limiter for its whole life. Documents fail
// inline (an "error" field on that line) — one bad document never ends the
// stream. Per-line size is bounded by the same limit as whole bodies
// elsewhere (MaxBodyBytes); an oversized line fails inline too. Responses
// are not cached: the path is built for one pass over a large corpus, not
// for hot-document reuse.
//
// The response status is committed (200) before the first document is
// processed — per-document failures are in-band, and a broken input stream
// surfaces as an error line followed by end-of-stream.
//
// On a fleet node (Config.Forward set) each task goes to the member owning
// it in bulk mode; the outcome line is the one the member's engine would
// have written, with "attempts" counting the routing passes.
func (s server) handleDiscoverStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		s.cfg.Metrics.Histogram("boundary_stream_duration_seconds",
			"Wall-clock duration of one /v1/discover/stream request.", nil).
			Observe(time.Since(start).Seconds())
	}()
	cfg := pipeline.Config{
		Workers:   s.cfg.BatchWorkers,
		Metrics:   s.cfg.Metrics,
		Trace:     obs.TraceFrom(r.Context()),
		Limits:    s.cfg.Limits,
		Faults:    s.cfg.Faults,
		Templates: s.cfg.Templates,
	}
	if s.cfg.Forward != nil {
		cfg.Forward = s.forwardTask
	}
	eng := pipeline.New(cfg)
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	// The endpoint reads the request body while writing the response; on
	// HTTP/1.x the server closes the body at the first write unless full
	// duplex is enabled (HTTP/2 streams are always full duplex, where this
	// is a no-op; on servers that cannot support it the stream still works
	// for bodies small enough to be buffered).
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	src := pipeline.NewNDJSONSource(r.Body, MaxBodyBytes)
	sink := pipeline.NewWriterSink(w, flush)
	// Per-document problems were already reported inline; a run-level error
	// (body read failure, server-side cancel) gets a final error line when
	// the connection is still alive, then the stream ends.
	if _, err := eng.Run(r.Context(), src, sink, nil); err != nil && r.Context().Err() == nil {
		_, _, _ = sink.Write(&pipeline.Outcome{Seq: -1, Error: "stream aborted: " + err.Error()})
	}
}

// forwardTask is the stream engine's per-task hook on a fleet node: the
// task's envelope goes to the member owning it in bulk mode, and the
// member's body becomes the outcome's result fields.
func (s server) forwardTask(ctx context.Context, t *pipeline.Task) (pipeline.Result, int, error) {
	req := request{Ontology: t.Ontology, SeparatorList: t.SeparatorList}
	if t.Mode == "xml" {
		req.XML = t.Doc
	} else {
		req.HTML = t.Doc
	}
	key := RequestFingerprint(t.Mode, t.Doc, t.Ontology, t.SeparatorList)
	body, attempts, apiErr := s.forward(ctx, key, encodeEnvelope(&req), true)
	if apiErr != nil {
		return pipeline.Result{}, attempts, apiErr.err
	}
	var res pipeline.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return pipeline.Result{}, attempts, fmt.Errorf("undecodable member response: %w", err)
	}
	return res, attempts, nil
}
