package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// maxBatchDocuments bounds one batch request. The body-size limit already
// caps total bytes; this caps scheduling overhead from degenerate requests
// with thousands of tiny documents.
const maxBatchDocuments = 256

// batchRequest is the /v1/discover/batch envelope: each document is a full
// discover request, so per-document ontologies and separator lists work.
type batchRequest struct {
	Documents []request `json:"documents"`
}

// batchError is one per-document failure in the results list; a document
// that succeeded is its discover body instead.
type batchError struct {
	// Error carries the per-document failure; the batch itself still
	// answers 200 so one bad document cannot mask the others' results.
	Error string `json:"error,omitempty"`
	// Code machine-tags the failure. "not_attempted" marks documents the
	// batch never dispatched because the request's context was canceled or
	// timed out mid-batch; clients should resubmit only those.
	Code string `json:"code,omitempty"`
}

// batchErrorItem encodes one per-document batch failure.
func batchErrorItem(msg, code string) []byte {
	b, _ := json.Marshal(batchError{Error: msg, Code: code}) // two strings cannot fail
	return b
}

// writeBatch writes a 200 batch body from its encoded items, in order: each
// a compact JSON object without a trailing newline.
func writeBatch(w http.ResponseWriter, items [][]byte) {
	n := len(`{"results":[]}`) + len(items) + 1
	for _, it := range items {
		n += len(it)
	}
	body := make([]byte, 0, n)
	body = append(body, `{"results":[`...)
	for i, it := range items {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, it...)
	}
	body = append(body, "]}\n"...)
	writeBody(w, body)
}

// codeNotAttempted marks batch documents skipped because the request ended
// before they were dispatched.
const codeNotAttempted = "not_attempted"

// handleDiscoverBatch fans a batch of documents across a bounded worker
// pool (the EvaluateAllParallel shape: indexed tasks, results slotted by
// position) and answers per-document results in input order. Each document
// takes the same path as /v1/discover: on a fleet node it is forwarded in
// bulk mode, otherwise it goes through the cache and pipeline. When the request
// context ends mid-batch, dispatch stops immediately: already-running
// documents finish (each sees the canceled context and fails fast), and
// undispatched ones come back with Code "not_attempted".
func (s server) handleDiscoverBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		s.cfg.Metrics.Histogram("boundary_batch_duration_seconds",
			"Wall-clock duration of one /v1/discover/batch request.", nil).
			Observe(time.Since(start).Seconds())
	}()
	var req batchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Documents) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("documents must be non-empty"))
		return
	}
	if len(req.Documents) > maxBatchDocuments {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d documents, limit is %d", len(req.Documents), maxBatchDocuments))
		return
	}

	workers := s.cfg.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Documents) {
		workers = len(req.Documents)
	}

	ctx := r.Context()
	items := make([][]byte, len(req.Documents))
	outcomes := make([]string, len(req.Documents)) // "" until dispatched
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case i, ok := <-next:
					if !ok {
						return
					}
					items[i], outcomes[i] = s.batchDocument(ctx, &req.Documents[i])
				case <-ctx.Done():
					return
				}
			}
		}()
	}
dispatch:
	for i := range req.Documents {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	for i := range items {
		if outcomes[i] == "" {
			items[i] = batchErrorItem("batch request ended before this document was attempted", codeNotAttempted)
			outcomes[i] = codeNotAttempted
		}
		s.cfg.Metrics.Counter("boundary_batch_documents_total",
			"Documents processed by the batch endpoint, by outcome.",
			"outcome", outcomes[i]).Inc()
	}
	writeBatch(w, items)
}

// batchDocument answers one batch document: its discover body without the
// newline, or an inline error item (a member's error text on a fleet
// node). A panic while computing it fails only this document — the
// single-flight leader has already completed its call before re-panicking,
// and nothing above a batch worker would recover it.
func (s server) batchDocument(ctx context.Context, req *request) (item []byte, outcome string) {
	defer func() {
		if v := recover(); v != nil {
			item, outcome = batchErrorItem(fmt.Sprintf("discovery panicked: %v", v), ""), "error"
		}
	}()
	body, apiErr := s.discoverOne(ctx, req, nil, true)
	if apiErr != nil {
		return batchErrorItem(apiErr.err.Error(), ""), "error"
	}
	return bytes.TrimSuffix(body, []byte("\n")), "ok"
}
