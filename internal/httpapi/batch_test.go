package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/paperdoc"
)

// batchResults posts a batch request and decodes the results array.
func batchResults(t *testing.T, documents []map[string]any) (*http.Response, []map[string]json.RawMessage) {
	t.Helper()
	srv, _ := cachedServer(t, 16)
	resp, body := post(t, srv, "/v1/discover/batch", map[string]any{"documents": documents})
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var results []map[string]json.RawMessage
	if err := json.Unmarshal(body["results"], &results); err != nil {
		t.Fatalf("decode results: %v", err)
	}
	return resp, results
}

func TestBatchEndpointOrderPreserved(t *testing.T) {
	// Distinct separators per document prove results land in input order.
	docs := []map[string]any{
		{"html": "<div><hr><b>A</b> one<hr><b>B</b> two<hr><b>C</b> three</div>"},
		{"html": paperdoc.Figure2, "ontology": "obituary"},
		{"xml": "<feed><entry>a b</entry><entry>c d</entry><entry>e f</entry></feed>"},
	}
	resp, results := batchResults(t, docs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(results) != len(docs) {
		t.Fatalf("results = %d, want %d", len(results), len(docs))
	}
	for i, want := range []string{"hr", "hr", "entry"} {
		if got := str(t, results[i]["separator"]); got != want {
			t.Errorf("result %d separator = %q, want %q", i, got, want)
		}
	}
}

func TestBatchPerDocumentErrors(t *testing.T) {
	docs := []map[string]any{
		{"html": "<div><hr><b>A</b> one<hr><b>B</b> two<hr><b>C</b> three</div>"},
		{"html": "plain text, no candidates"},
		{}, // neither html nor xml
	}
	resp, results := batchResults(t, docs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with failing documents must still answer 200, got %d", resp.StatusCode)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if _, hasErr := results[0]["error"]; hasErr {
		t.Errorf("result 0 unexpectedly failed: %s", results[0]["error"])
	}
	for i, wantFrag := range map[int]string{1: "candidate", 2: "exactly one"} {
		raw, ok := results[i]["error"]
		if !ok {
			t.Errorf("result %d should carry an error", i)
			continue
		}
		if msg := str(t, raw); !strings.Contains(msg, wantFrag) {
			t.Errorf("result %d error = %q, want fragment %q", i, msg, wantFrag)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	srv, _ := cachedServer(t, 4)
	if resp, _ := post(t, srv, "/v1/discover/batch", map[string]any{"documents": []any{}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", resp.StatusCode)
	}
	over := make([]map[string]any, maxBatchDocuments+1)
	for i := range over {
		over[i] = map[string]any{"html": "<div><p>x</p></div>"}
	}
	if resp, body := post(t, srv, "/v1/discover/batch", map[string]any{"documents": over}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400 (%s)", resp.StatusCode, body["error"])
	}
}

// TestBatchSharesCache: a batch full of one repeated document computes it
// once and serves the rest from the result cache. One worker keeps the
// miss count deterministic (concurrent workers could each miss the first
// lookup before any of them stores the entry).
func TestBatchSharesCache(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewHandler(Config{Metrics: reg, CacheSize: 8, BatchWorkers: 1}))
	t.Cleanup(srv.Close)
	doc := map[string]any{"html": paperdoc.Figure2, "ontology": "obituary"}
	docs := []map[string]any{doc, doc, doc, doc}
	resp, body := post(t, srv, "/v1/discover/batch", map[string]any{"documents": docs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body["error"])
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "boundary_cache_misses_total 1") {
		t.Errorf("want exactly one miss across the batch; metrics:\n%s", grepLines(got, "boundary_cache"))
	}
	if !strings.Contains(got, "boundary_batch_documents_total{outcome=\"ok\"} 4") {
		t.Errorf("want 4 ok batch documents; metrics:\n%s", grepLines(got, "boundary_batch"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func TestBatchSingleDocumentMatchesDiscover(t *testing.T) {
	srv, _ := cachedServer(t, 4)
	doc := map[string]any{"html": paperdoc.Figure2, "ontology": "obituary"}
	_, single := post(t, srv, "/v1/discover", doc)
	resp, body := post(t, srv, "/v1/discover/batch", map[string]any{"documents": []map[string]any{doc}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var results []map[string]json.RawMessage
	if err := json.Unmarshal(body["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	for _, field := range []string{"separator", "top_tags", "scores", "candidates", "subtree"} {
		if got, want := compact(t, results[0][field]), compact(t, single[field]); got != want {
			t.Errorf("batch %s = %s, discover = %s", field, got, want)
		}
	}
}

// compact strips encoding whitespace so values can be compared regardless of
// how deeply the encoder indented them.
func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatalf("compact %s: %v", raw, err)
	}
	return b.String()
}
