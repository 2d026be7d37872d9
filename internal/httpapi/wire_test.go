package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/paperdoc"
)

// legacyResponse is the /v1/discover response type the service encoded
// with encoding/json before bodies were encoded once, built from a result
// the way it was built then.
type legacyResponse struct {
	Separator        string                  `json:"separator"`
	TopTags          []string                `json:"top_tags"`
	Scores           []legacyScore           `json:"scores"`
	Rankings         map[string][]legacyRank `json:"rankings"`
	Candidates       []legacyCandidate       `json:"candidates"`
	Subtree          string                  `json:"subtree"`
	Degraded         bool                    `json:"degraded,omitempty"`
	FailedHeuristics []string                `json:"failed_heuristics,omitempty"`
}

type legacyScore struct {
	Tag string  `json:"tag"`
	CF  float64 `json:"cf"`
}

type legacyRank struct {
	Tag  string `json:"tag"`
	Rank int    `json:"rank"`
}

type legacyCandidate struct {
	Tag   string `json:"tag"`
	Count int    `json:"count"`
}

func newLegacyResponse(res *core.Result) *legacyResponse {
	out := &legacyResponse{
		Separator:        res.Separator,
		TopTags:          res.TopTags,
		Subtree:          res.Subtree.Name,
		Rankings:         map[string][]legacyRank{},
		Degraded:         res.Degraded,
		FailedHeuristics: res.FailedHeuristics,
	}
	for _, s := range res.Scores {
		out.Scores = append(out.Scores, legacyScore{Tag: s.Tag, CF: s.CF})
	}
	for name, ranking := range res.Rankings {
		rows := make([]legacyRank, 0, len(ranking))
		for _, e := range ranking {
			rows = append(rows, legacyRank{Tag: e.Tag, Rank: e.Rank})
		}
		out.Rankings[name] = rows
	}
	for _, c := range res.Candidates {
		out.Candidates = append(out.Candidates, legacyCandidate{Tag: c.Name, Count: c.Count})
	}
	return out
}

// TestDiscoverBodyMatchesLegacyEncoding: a discover body is json.Marshal of
// the legacy response type plus a newline — the indented body of the
// earlier release after json.Compact.
func TestDiscoverBodyMatchesLegacyEncoding(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{}))
	defer srv.Close()
	for _, tc := range []struct{ doc, ont string }{
		{paperdoc.Figure2, "obituary"},
		{paperdoc.Figure2, ""},
		{"<div><hr><b>A</b> x &amp; <i>y</i><hr><b>B</b> \u2028<hr></div>", ""},
	} {
		res, err := core.Discover(tc.doc, core.Options{Ontology: ontology.Builtin(tc.ont)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(newLegacyResponse(res))
		if err != nil {
			t.Fatal(err)
		}
		got := postJSONRaw(t, srv, map[string]any{"html": tc.doc, "ontology": tc.ont})
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("ontology %q:\n got %s\nwant %s", tc.ont, got, want)
		}
	}
}

// TestCacheHitUnaffectedByExplain: ?explain=1 builds its own body for the
// same document while cache hits share the stored one; under -race, no
// explain request may write into the stored bytes.
func TestCacheHitUnaffectedByExplain(t *testing.T) {
	srv, reg := cachedServer(t, 8)
	body := map[string]any{"html": paperdoc.Figure2, "ontology": "obituary"}
	want := postJSONRaw(t, srv, body)
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := postJSONRaw(t, srv, body); !bytes.Equal(got, want) {
					t.Errorf("cache hit changed:\n got %s\nwant %s", got, want)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(srv.URL+"/v1/discover?explain=1", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// The explain body is the plain body with one more field.
				prefix := want[:len(want)-2]
				if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(got, prefix) ||
					!strings.HasPrefix(string(got[len(prefix):]), `,"explain":{`) ||
					!strings.HasSuffix(string(got), "}}\n") {
					t.Errorf("explain = %d %s", resp.StatusCode, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !metricValue(t, reg, "boundary_cache_hits_total 20") {
		t.Error("want 20 cache hits; explain requests must bypass the cache")
	}
}
