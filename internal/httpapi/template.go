package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/pipeline"
	"repro/internal/template"
)

// Template-store endpoints: the cluster-warming and introspection surface of
// the learned-wrapper fast path (docs/WRAPPER.md).
//
//	POST /v1/template/publish  {entry}  — absorb a peer's learned wrapper
//	GET  /v1/template/stats             — store counters
//	GET  /v1/template/export            — full store as NDJSON, LRU-first
//
// All answer 503 when the node runs without a wrapper store, so a publisher
// hitting a misconfigured peer sees a clean failure, not a 404 it could
// mistake for a routing bug. Export is the serving half of the joiner warmup
// state transfer (template.Pull reads it; see docs/SCALING.md).

func registerTemplateRoutes(mux *http.ServeMux, s server) {
	mux.HandleFunc("POST /v1/template/publish", s.handleTemplatePublish)
	mux.HandleFunc("GET /v1/template/stats", s.handleTemplateStats)
	mux.HandleFunc("GET "+template.ExportPath, s.handleTemplateExport)
}

func (s server) handleTemplatePublish(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Templates == nil {
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("this node has no wrapper store"))
		return
	}
	var e template.Entry
	if !decodeJSON(w, r, &e) {
		return
	}
	// Absorb, not Put: a published entry must not be re-announced through
	// OnStore, or two warmed replicas would bounce it forever.
	if err := s.cfg.Templates.Absorb(&e); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"absorbed": e.Key})
}

func (s server) handleTemplateStats(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Templates == nil {
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("this node has no wrapper store"))
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Templates.Stats())
}

// handleTemplateExport streams the full store as NDJSON, one entry per line,
// least recently used first — replaying in order reproduces the source's LRU
// order in the receiver. This is what a joining replica pulls from its ring
// neighbors before taking traffic.
func (s server) handleTemplateExport(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Templates == nil {
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("this node has no wrapper store"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range s.cfg.Templates.Entries() {
		if err := enc.Encode(e); err != nil {
			return // mid-stream write failure: the puller sees a torn stream and retries elsewhere
		}
	}
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
