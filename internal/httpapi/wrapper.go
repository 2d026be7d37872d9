package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/wrapper"
)

// Wrapper endpoints: the learn-once / apply-cheaply workflow over HTTP.
//
//	POST /v1/wrapper/learn {samples: [html...], ontology?}
//	     → {wrapper: <opaque JSON>, separator, confidence, agreement}
//	POST /v1/wrapper/apply {wrapper: <from learn>, html, ontology?}
//	     → {records: [...]} or 409 on drift

type learnRequest struct {
	Samples  []string `json:"samples"`
	Ontology string   `json:"ontology,omitempty"`
}

type applyRequest struct {
	Wrapper  json.RawMessage `json:"wrapper"`
	HTML     string          `json:"html"`
	Ontology string          `json:"ontology,omitempty"`
}

func registerWrapperRoutes(mux *http.ServeMux, s server) {
	mux.HandleFunc("POST /v1/wrapper/learn", s.handleWrapperLearn)
	mux.HandleFunc("POST /v1/wrapper/apply", s.handleWrapperApply)
}

func (s server) handleWrapperLearn(w http.ResponseWriter, r *http.Request) {
	var req learnRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Samples) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("samples are required"))
		return
	}
	ont, err := s.onts.Resolve(req.Ontology)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	learned, err := wrapper.Learn(req.Samples, ont)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	var buf bytes.Buffer
	if err := learned.Save(&buf); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"wrapper":    json.RawMessage(buf.Bytes()),
		"separator":  learned.Separator,
		"confidence": learned.Confidence,
		"agreement":  learned.Agreement,
	})
}

func (s server) handleWrapperApply(w http.ResponseWriter, r *http.Request) {
	var req applyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Wrapper) == 0 || req.HTML == "" {
		writeErr(w, http.StatusBadRequest, errors.New("wrapper and html are required"))
		return
	}
	ont, err := s.onts.Resolve(req.Ontology)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	learned, err := wrapper.LoadWithOntology(bytes.NewReader(req.Wrapper), ont)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	records, err := learned.Apply(req.HTML)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, wrapper.ErrDrift) {
			status = http.StatusConflict
		}
		writeErr(w, status, err)
		return
	}
	var out []recordBody
	for _, rec := range records {
		out = append(out, recordBody{Text: rec.Text, Start: rec.Start, End: rec.End})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"separator": learned.Separator,
		"records":   out,
	})
}
