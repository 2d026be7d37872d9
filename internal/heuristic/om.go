package heuristic

import (
	"math"

	"repro/internal/ontology"
)

// OM is the ontology-matching heuristic (§4.5): the only heuristic that
// considers record *content*. Fields in one-to-one correspondence with (or
// functional on) the entity of interest appear once per record; averaging
// the occurrence counts of a few such record-identifying fields estimates
// the number of records, and candidates are ranked by how close their own
// appearance count comes to that estimate.
//
// OM reads one indicator count per record-identifying field. The paper
// takes them from the Data-Record Table the larger extraction process of
// Figure 1 has already computed — the basis of its argument that OM
// contributes O(d) to the overall process rather than a fresh
// regular-expression pass. Discovery on its own has no such table, so
// NewContext runs only the record-identifying fields' rules and keeps just
// their counts (Context.FieldCounts); a context that carries an extraction
// table instead (Context.Table) is read from that.
type OM struct{}

// Name returns "OM".
func (OM) Name() string { return "OM" }

// Rank estimates the record count from the ontology's record-identifying
// fields and ranks candidates by |count(tag) − estimate| ascending. ok is
// false when no ontology or field counts are available, or when the
// ontology has fewer than three record-identifying fields (§4.5's lower
// bound).
func (OM) Rank(ctx *Context) (Ranking, bool) {
	if len(ctx.Candidates) == 0 {
		return nil, false
	}
	estimate, ok := OMEstimate(ctx)
	if !ok {
		return nil, false
	}
	r := make(Ranking, len(ctx.Candidates))
	for i, c := range ctx.Candidates {
		r[i] = Ranked{Tag: c.Name, Score: math.Abs(float64(c.Count) - estimate)}
	}
	return rank(r, true), true
}

// fieldsOf returns the ontology's record-identifying fields; ok is false
// for a nil ontology.
func fieldsOf(ont *ontology.Ontology) ([]ontology.RecordIdentifyingField, bool) {
	if ont == nil {
		return nil, false
	}
	return ont.RecordIdentifyingFields()
}
