package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/httpapi"
)

// batchEnvelope is decoded strictly (unknown fields rejected) purely to
// replicate the single node's validation wording; the documents themselves
// travel on as raw bytes.
type batchEnvelope struct {
	Documents []discoverEnvelope `json:"documents"`
}

// rawBatch re-decodes the same body for forwarding: each document's original
// bytes, untouched, so the peer sees exactly what the client sent.
type rawBatch struct {
	Documents []json.RawMessage `json:"documents"`
}

// codeNotAttempted mirrors the single-node batch contract for documents the
// request's end cut off before dispatch.
const codeNotAttempted = "not_attempted"

// handleBatch scatter-gathers one batch across the cluster: each document is
// routed independently by its own fingerprint (different documents land on
// different replicas — this is where the cluster's parallelism comes from)
// and the per-document response bytes are merged back in input order.
// Validation mirrors the single node exactly; per-document results are the
// peers' compact bodies verbatim, assembled by the single node's
// httpapi.WriteBatch.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var env batchEnvelope
	if err := dec.Decode(&env); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(env.Documents) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("documents must be non-empty"))
		return
	}
	if len(env.Documents) > httpapi.MaxBatchDocuments {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d documents, limit is %d", len(env.Documents), httpapi.MaxBatchDocuments))
		return
	}
	var raw rawBatch
	if err := json.Unmarshal(body, &raw); err != nil || len(raw.Documents) != len(env.Documents) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return
	}

	ctx := req.Context()
	workers := workersPerPeer * len(r.snapshot().peers)
	if workers > len(raw.Documents) {
		workers = len(raw.Documents)
	}

	attempted := make([]bool, len(raw.Documents))
	items := make([][]byte, len(raw.Documents))
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
					attempted[i] = true
					items[i] = r.batchDocument(ctx, i, raw.Documents[i])
				case <-ctx.Done():
					return
				}
			}
		}()
	}
dispatch:
	for i := range raw.Documents {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	for i := range items {
		if !attempted[i] {
			items[i] = httpapi.BatchErrorItem("batch request ended before this document was attempted", codeNotAttempted)
		}
	}
	httpapi.WriteBatch(w, items)
}

// batchDocument routes one document and converts the peer's answer into the
// batch item shape: a 200 body passes through compacted (a no-op on a
// current peer's body, which is one compact line); a peer error becomes the
// single node's inline {"error": ...} row.
func (r *Router) batchDocument(ctx context.Context, seq int, doc json.RawMessage) []byte {
	status, resp, _, err := r.routeWithRetry(ctx, seq, routingKey(doc), "/v1/discover", doc)
	if err != nil {
		return httpapi.BatchErrorItem(err.Error(), "")
	}
	if status == http.StatusOK {
		var item bytes.Buffer
		if err := json.Compact(&item, resp); err != nil {
			return httpapi.BatchErrorItem(fmt.Sprintf("cluster: undecodable peer response: %v", err), "")
		}
		return item.Bytes()
	}
	var peerErr errorBody
	if jsonErr := json.Unmarshal(resp, &peerErr); jsonErr != nil || peerErr.Error == "" {
		peerErr.Error = fmt.Sprintf("peer answered status %d", status)
	}
	return httpapi.BatchErrorItem(peerErr.Error, "")
}
