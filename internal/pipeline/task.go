package pipeline

import (
	"fmt"

	"repro/internal/core"
)

// Task is one document queued for bulk discovery. Seq is its dense 0-based
// position in the input stream; the engine uses it both to restore input
// order on output and as the checkpoint key, so the same input must always
// produce the same Seq assignment (sources guarantee this).
type Task struct {
	// Seq is assigned by the source in input order, starting at 0.
	Seq int
	// ID is the caller's label for the document ("doc-<seq>" when absent).
	ID string
	// Mode is "html" or "xml".
	Mode string
	// Doc is the document source. A task from NDJSONSource or DirSource
	// views a recycled buffer: Doc is valid until the engine has written
	// this task's outcome, and nothing derived from it (tag names in a
	// core.Result, an Outcome's fields) may be kept past that point.
	Doc string
	// Ontology is a built-in ontology name or full DSL source; empty
	// disables OM, exactly as on the HTTP surface.
	Ontology string
	// SeparatorList optionally overrides IT's identifiable-separator list.
	SeparatorList []string
	// Shard routes the result to an output shard (e.g. the document's
	// domain); empty lands in the default shard.
	Shard string

	// invalid carries a per-line input error (malformed JSON, oversized
	// line, bad envelope). The engine emits it as an error outcome without
	// running the pipeline, so one bad line cannot sink a corpus.
	invalid error
	// docBuf is the recycled buffer Doc views (nil for an owned Doc); it
	// travels on to the Outcome and back to the pool.
	docBuf *[]byte
}

// TaskID returns the task's label, defaulting to its sequence position
// ("doc-<seq>").
func (t *Task) TaskID() string {
	if t.ID != "" {
		return t.ID
	}
	return fmt.Sprintf("doc-%d", t.Seq)
}

// Score is one compound certainty score on the wire.
type Score struct {
	Tag string  `json:"tag"`
	CF  float64 `json:"cf"`
}

// RankEntry is one heuristic ranking row on the wire.
type RankEntry struct {
	Tag  string `json:"tag"`
	Rank int    `json:"rank"`
}

// Candidate is one candidate separator tag with its count on the wire.
type Candidate struct {
	Tag   string `json:"tag"`
	Count int    `json:"count"`
}

// Result is a discovery answer's wire fields, in wire order: the
// /v1/discover body's result fields and the NDJSON outcome's. Outcome embeds
// it, so both surfaces carry one shape; AppendOutcome and AppendDiscover
// encode it (see wire.go).
type Result struct {
	Separator  string                 `json:"separator,omitempty"`
	TopTags    []string               `json:"top_tags,omitempty"`
	Scores     []Score                `json:"scores,omitempty"`
	Rankings   map[string][]RankEntry `json:"rankings,omitempty"`
	Candidates []Candidate            `json:"candidates,omitempty"`
	Subtree    string                 `json:"subtree,omitempty"`

	// Degraded and FailedHeuristics surface isolated heuristic failures:
	// the answer was computed from the surviving heuristics only.
	Degraded         bool     `json:"degraded,omitempty"`
	FailedHeuristics []string `json:"failed_heuristics,omitempty"`
}

// NewResult copies a discovery result into its wire fields. Rankings is
// never nil, so a discover body always carries a rankings object; Scores
// and Candidates are nil when empty.
func NewResult(res *core.Result) Result {
	r := Result{
		Separator:        res.Separator,
		TopTags:          res.TopTags,
		Rankings:         make(map[string][]RankEntry, len(res.Rankings)),
		Subtree:          res.Subtree.Name,
		Degraded:         res.Degraded,
		FailedHeuristics: res.FailedHeuristics,
	}
	if len(res.Scores) > 0 {
		r.Scores = make([]Score, len(res.Scores))
		for i, s := range res.Scores {
			r.Scores[i] = Score{Tag: s.Tag, CF: s.CF}
		}
	}
	for name, ranking := range res.Rankings {
		rows := make([]RankEntry, len(ranking))
		for i, e := range ranking {
			rows[i] = RankEntry{Tag: e.Tag, Rank: e.Rank}
		}
		r.Rankings[name] = rows
	}
	if len(res.Candidates) > 0 {
		r.Candidates = make([]Candidate, len(res.Candidates))
		for i, c := range res.Candidates {
			r.Candidates[i] = Candidate{Tag: c.Name, Count: c.Count}
		}
	}
	return r
}

// Outcome is one document's bulk-discovery result as written to the output
// stream — the same shape as the /v1/discover response body plus the bulk
// envelope (seq, id, shard, attempts, error). Exactly one of Separator or
// Error is meaningful.
type Outcome struct {
	Seq   int    `json:"seq"`
	ID    string `json:"id"`
	Shard string `json:"shard,omitempty"`
	// Attempts is recorded only when retries happened (>1).
	Attempts int `json:"attempts,omitempty"`

	Result

	// Error carries the per-document failure; the run itself keeps going,
	// mirroring the batch endpoint's inline-error contract.
	Error string `json:"error,omitempty"`

	// skipped marks a task the checkpoint journal proved already done; the
	// emitter advances past it without writing or journaling.
	skipped bool
	// canceled marks a task abandoned because the run context ended; it is
	// never written or journaled, so a resumed run re-processes it.
	canceled bool
	// docBuf is the task's recycled document buffer, which the emitter
	// hands back once it has passed this outcome.
	docBuf *[]byte
}
