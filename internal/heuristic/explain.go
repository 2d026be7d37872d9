package heuristic

import (
	"slices"

	"repro/internal/recognizer"
)

// This file exposes each heuristic's intermediate evidence for debugging,
// UI explanations, and tests — the quantities the paper discusses when
// walking through its Figure 2 example.

// Pair is an ordered adjacency of two candidate start-tags (RP's unit of
// evidence): First occurs immediately before Second with no intervening
// plain text.
type Pair struct {
	First, Second string
}

// RPPairs returns RP's adjacency counts for the document: how many times
// each ordered candidate pair occurs at a potential boundary. For the
// paper's Figure 2, RPPairs yields {hr b}:2 and {br hr}:2.
func RPPairs(ctx *Context) map[Pair]int {
	out := make(map[Pair]int)
	nc := len(ctx.Candidates)
	if nc == 0 {
		return out
	}
	st := ctx.statsOf()
	for a := 0; a < nc; a++ {
		for b := 0; b < nc; b++ {
			if n := st.pairs[a*nc+b]; n > 0 {
				out[Pair{First: ctx.Candidates[a].Name, Second: ctx.Candidates[b].Name}] = int(n)
			}
		}
	}
	return out
}

// SDIntervals returns, per candidate tag, the plain-text character counts
// between its consecutive occurrences — the samples whose standard
// deviation SD ranks by.
func SDIntervals(ctx *Context) map[string][]float64 {
	out := make(map[string][]float64, len(ctx.Candidates))
	if len(ctx.Candidates) == 0 {
		return out
	}
	st := ctx.statsOf()
	for i, c := range ctx.Candidates {
		if iv := st.intervals(i); len(iv) > 0 {
			out[c.Name] = slices.Clone(iv)
		}
	}
	return out
}

// OMEstimate returns the record-count estimate OM ranks against (the mean
// indicator count of the ontology's record-identifying fields), from the
// context's field counts or, when it carries only a Data-Record Table, from
// the table. ok is false when OM would decline (no ontology or counts, or
// fewer than three record-identifying fields).
func OMEstimate(ctx *Context) (estimate float64, ok bool) {
	fields, ok := fieldsOf(ctx.Ontology)
	switch {
	case !ok:
		return 0, false
	case ctx.FieldCounts != nil:
		sum := 0
		for _, n := range ctx.FieldCounts {
			sum += n
		}
		return float64(sum) / float64(len(fields)), true
	case ctx.Table != nil:
		return recognizer.EstimateRecordCount(ctx.Ontology, ctx.Table)
	}
	return 0, false
}

// DeclineReason reconstructs why the named heuristic declined to answer on
// this context, in the terms the paper uses for each heuristic's
// no-answer case. It returns "" for heuristics that would not have declined
// (the caller is then looking at an isolated failure or an injected fault,
// not a genuine decline) and for unknown names.
func DeclineReason(name string, ctx *Context) string {
	if len(ctx.Candidates) == 0 {
		return "no candidate separator tags"
	}
	switch name {
	case "OM":
		if ctx.Ontology == nil {
			return "no ontology supplied"
		}
		if _, ok := fieldsOf(ctx.Ontology); !ok {
			return "fewer than three record-identifying fields matched"
		}
		if ctx.FieldCounts == nil && ctx.Table == nil {
			return "no data-record table built"
		}
	case "RP":
		if !ctx.statsOf().anyPair {
			return "no adjacent candidate start-tag pairs"
		}
		return "no tag pair above the pair-count floor"
	case "IT":
		return "no candidate on the identifiable-separator list"
	}
	return ""
}
