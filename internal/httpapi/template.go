package httpapi

import (
	"errors"
	"net/http"

	"repro/internal/pipeline"
	"repro/internal/template"
)

// registerTemplateRoutes mounts GET /v1/template/stats, the learned-wrapper
// store's counters (docs/WRAPPER.md). It answers 503 when the node runs
// without a wrapper store, so a probe of a misconfigured node sees a clean
// failure, not a 404 it could mistake for a routing bug.
func registerTemplateRoutes(mux *http.ServeMux, s server) {
	mux.HandleFunc("GET /v1/template/stats", s.handleTemplateStats)
}

func (s server) handleTemplateStats(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Templates == nil {
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("this node has no wrapper store"))
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Templates.Stats())
}

// resultFromEntry rebuilds the wire fields from a stored wrapper entry,
// field-for-field the way pipeline.NewResult builds them from a fresh
// result — the conformance suite holds the two byte-identical.
func resultFromEntry(e *template.Entry) pipeline.Result {
	r := pipeline.Result{
		Separator: e.Separator,
		Subtree:   e.Subtree,
		Rankings:  make(map[string][]pipeline.RankEntry, len(e.Rankings)),
	}
	if len(e.TopTags) > 0 {
		r.TopTags = e.TopTags
	}
	if len(e.Scores) > 0 {
		r.Scores = make([]pipeline.Score, len(e.Scores))
		for i, s := range e.Scores {
			r.Scores[i] = pipeline.Score(s)
		}
	}
	for name, rows := range e.Rankings {
		rr := make([]pipeline.RankEntry, len(rows))
		for i, row := range rows {
			rr[i] = pipeline.RankEntry(row)
		}
		r.Rankings[name] = rr
	}
	if len(e.Candidates) > 0 {
		r.Candidates = make([]pipeline.Candidate, len(e.Candidates))
		for i, c := range e.Candidates {
			r.Candidates[i] = pipeline.Candidate(c)
		}
	}
	return r
}
