package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ontology"
	"repro/internal/paperdoc"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(Config{}))
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var decoded map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, decoded
}

func str(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	return s
}

func TestDiscoverEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/v1/discover", map[string]any{
		"html": paperdoc.Figure2, "ontology": "obituary",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body["error"])
	}
	if got := str(t, body["separator"]); got != "hr" {
		t.Errorf("separator = %q", got)
	}
	var scores []struct {
		Tag string  `json:"tag"`
		CF  float64 `json:"cf"`
	}
	if err := json.Unmarshal(body["scores"], &scores); err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 || scores[0].Tag != "hr" || scores[0].CF < 0.999 {
		t.Errorf("scores = %+v", scores)
	}
	var rankings map[string][]struct {
		Tag  string `json:"tag"`
		Rank int    `json:"rank"`
	}
	if err := json.Unmarshal(body["rankings"], &rankings); err != nil {
		t.Fatal(err)
	}
	if len(rankings) != 5 {
		t.Errorf("rankings = %d heuristics, want 5", len(rankings))
	}
}

func TestDiscoverXMLEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/v1/discover", map[string]any{
		"xml":            "<c><item>a b</item><item>c d</item><item>e f</item></c>",
		"separator_list": []string{"item"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body["error"])
	}
	if got := str(t, body["separator"]); got != "item" {
		t.Errorf("separator = %q", got)
	}
}

func TestDiscoverErrors(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"neither html nor xml", map[string]any{}, http.StatusBadRequest},
		{"both html and xml", map[string]any{"html": "<p>", "xml": "<x/>"}, http.StatusBadRequest},
		{"bad ontology", map[string]any{"html": "<p>a</p>", "ontology": "garbage no newline works as name"}, http.StatusBadRequest},
		{"no candidates", map[string]any{"html": "plain text"}, http.StatusUnprocessableEntity},
		{"unknown field", map[string]any{"html": "<p>", "bogus": 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, srv, "/v1/discover", c.body)
			if resp.StatusCode != c.want {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, c.want, body["error"])
			}
			if _, ok := body["error"]; !ok {
				t.Error("error body missing")
			}
		})
	}
}

func TestRecordsEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/v1/records", map[string]any{"html": paperdoc.Figure2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var records []struct {
		Text       string `json:"text"`
		Start, End int
	}
	if err := json.Unmarshal(body["records"], &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("records = %d, want 4", len(records))
	}
	if !strings.Contains(records[1].Text, "Lemar K. Adamson") {
		t.Errorf("record 2 text = %.40q", records[1].Text)
	}
}

func TestExtractEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/v1/extract", map[string]any{
		"html": paperdoc.Figure2, "ontology": "obituary",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body["error"])
	}
	var db map[string][]map[string]*string
	if err := json.Unmarshal(body["database"], &db); err != nil {
		t.Fatal(err)
	}
	if len(db["Obituary"]) != 3 {
		t.Errorf("obituaries = %d, want 3", len(db["Obituary"]))
	}
	if name := db["Obituary"][0]["DeceasedName"]; name == nil || *name != "Lemar K. Adamson" {
		t.Errorf("first name = %v", name)
	}
}

func TestExtractRequiresOntology(t *testing.T) {
	srv := newServer(t)
	resp, _ := post(t, srv, "/v1/extract", map[string]any{"html": paperdoc.Figure2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestExtractWithInlineDSL(t *testing.T) {
	srv := newServer(t)
	dsl := "ontology Mini\nentity Mini\n" +
		"object A : one-to-one {\n keyword `died on`\n}\n" +
		"object B : one-to-one {\n keyword `Funeral`\n}\n" +
		"object C : one-to-one {\n keyword `Interment`\n}\n"
	resp, body := post(t, srv, "/v1/extract", map[string]any{
		"html": paperdoc.Figure2, "ontology": dsl,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body["error"])
	}
}

func TestClassifyEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/v1/classify", map[string]any{
		"html": paperdoc.Figure2, "ontology": "obituary",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body["error"])
	}
	if got := str(t, body["kind"]); got != "multiple-records" {
		t.Errorf("kind = %q", got)
	}
}

func TestOntologiesEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/ontologies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Builtin    []string `json:"builtin"`
		Heuristics []string `json:"heuristics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Builtin) != 4 || len(body.Heuristics) != 5 {
		t.Errorf("body = %+v", body)
	}
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/discover")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/discover status = %d, want 405", resp.StatusCode)
	}
}

func TestBodyLimit(t *testing.T) {
	srv := newServer(t)
	huge := map[string]any{"html": strings.Repeat("x", MaxBodyBytes+1024)}
	resp, body := post(t, srv, "/v1/discover", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
	if msg := str(t, body["error"]); !strings.Contains(msg, "exceeds") {
		t.Errorf("error message %q does not mention the limit", msg)
	}
}

// TestInlineDSLParsedOnce: a handler keeps inline DSL ontologies parsed
// across requests, so a repeated one costs what a built-in name does
// rather than a fresh parse and rule compile (thousands of allocations)
// on every result-cache miss.
func TestInlineDSLParsedOnce(t *testing.T) {
	h := NewHandler(Config{})
	allocs := func(ont string) float64 {
		body, err := json.Marshal(map[string]string{"html": paperdoc.Figure2, "ontology": ont})
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/discover", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d: %s", rec.Code, rec.Body)
			}
		}
		serve() // the first request parses the ontology
		return testing.AllocsPerRun(5, serve)
	}
	builtin, inline := allocs("obituary"), allocs(ontology.ObituarySrc)
	if inline > builtin+100 {
		t.Errorf("repeated inline DSL request: %.0f allocs, built-in name %.0f: the ontology is parsed per request",
			inline, builtin)
	}
}
