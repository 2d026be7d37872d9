package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/httpapi"
	"repro/internal/pipeline"
)

// handleStream is the routed bulk surface: the NDJSON task stream is parsed
// with the bulk engine's own source (identical per-line validation), each
// document fans out to its fingerprint's replica through the blocking
// (backpressure) routing path, and outcomes are merged back in input order
// by the engine's reorder discipline — dense window tokens, a pending map,
// emission strictly by sequence number. The output is byte-identical to the
// single node's /v1/discover/stream for the same input.
func (r *Router) handleStream(w http.ResponseWriter, req *http.Request) {
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	// Reading the request body while writing the response needs full duplex
	// on HTTP/1.x, exactly as on the single-node surface.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	src := pipeline.NewNDJSONSource(req.Body, httpapi.MaxBodyBytes)
	sink := pipeline.NewWriterSink(w, flush)
	if err := r.runStream(req.Context(), src, sink); err != nil && req.Context().Err() == nil {
		_, _, _ = sink.Write(&pipeline.Outcome{Seq: -1, Error: "stream aborted: " + err.Error()})
	}
}

// runStream is the router's analogue of the bulk engine's Run loop, with the
// worker body swapped from "run the pipeline locally" to "route to a peer".
func (r *Router) runStream(ctx context.Context, src pipeline.Source, sink pipeline.Sink) error {
	workers := workersPerPeer * len(r.snapshot().peers)
	window := 4 * workers
	if window < 16 {
		window = 16
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var srcErr, emitErr error
	work := make(chan *pipeline.Task)
	results := make(chan *pipeline.Outcome, workers)
	tokens := make(chan struct{}, window)

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

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work {
				results <- r.streamOutcome(runCtx, t)
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	pending := make(map[int]*pipeline.Outcome)
	next := 0
	for o := range results {
		pending[o.Seq] = o
		for {
			cur, ready := pending[next]
			if !ready {
				break
			}
			delete(pending, next)
			if emitErr == nil && runCtx.Err() == nil {
				if _, _, err := sink.Write(cur); err != nil {
					emitErr = err
					cancelRun()
				}
			}
			next++
			select {
			case <-tokens:
			default:
			}
		}
	}

	switch {
	case srcErr != nil:
		return srcErr
	case emitErr != nil:
		return emitErr
	default:
		return ctx.Err()
	}
}

// streamOutcome turns one task into one outcome, replicating the engine's
// per-task validation (invalid lines and unknown modes fail inline with the
// same wording) and otherwise routing the document to its replica.
func (r *Router) streamOutcome(ctx context.Context, t *pipeline.Task) *pipeline.Outcome {
	o := &pipeline.Outcome{Seq: t.Seq, ID: t.TaskID(), Shard: t.Shard}
	if err := t.Invalid(); err != nil {
		o.Error = err.Error()
		return o
	}
	if t.Mode != "html" && t.Mode != "xml" {
		o.Error = fmt.Sprintf("unknown document mode %q", t.Mode)
		return o
	}

	env := discoverEnvelope{Ontology: t.Ontology, SeparatorList: t.SeparatorList}
	if t.Mode == "xml" {
		env.XML = t.Doc
	} else {
		env.HTML = t.Doc
	}
	body := mustMarshal(env)
	key := httpapi.RequestFingerprint(t.Mode, t.Doc, t.Ontology, t.SeparatorList)

	status, resp, attempts, err := r.routeWithRetry(ctx, t.Seq, key, "/v1/discover", body)
	if attempts > 1 {
		o.Attempts = attempts
	}
	switch {
	case err != nil:
		o.Error = err.Error()
	case status != http.StatusOK:
		var peerErr errorBody
		if jsonErr := json.Unmarshal(resp, &peerErr); jsonErr != nil || peerErr.Error == "" {
			peerErr.Error = fmt.Sprintf("peer answered status %d", status)
		}
		o.Error = peerErr.Error
	default:
		// The replica's body carries exactly the outcome's result fields,
		// and the outcome encoder omits the empty ones, so the line matches
		// what the local engine would have written.
		if jsonErr := json.Unmarshal(resp, &o.Result); jsonErr != nil {
			o.Result = pipeline.Result{}
			o.Error = fmt.Sprintf("cluster: undecodable peer response: %v", jsonErr)
		}
	}
	return o
}

// mustMarshal marshals a value that cannot fail (plain structs of strings).
func mustMarshal(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // unreachable: inputs are fixed-shape structs
	}
	return b
}
