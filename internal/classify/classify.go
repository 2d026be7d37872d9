// Package classify addresses the paper's stated future work (§1): checking
// the assumptions the Record-Boundary Discovery Algorithm makes about its
// input. The paper assumes every document (1) has multiple records and
// (2) contains at least one record-separator tag, and explicitly defers
// "to determine if a record spans multiple Web documents or if a record
// resides in a single Web document" to future research.
//
// The classifier reuses the machinery the paper already has: the ontology's
// record-identifying fields estimate how many records a page holds (the OM
// heuristic's counting argument), and the tag tree's highest-fan-out
// subtree says whether the page even has a repeated structure to separate.
package classify

import (
	"context"
	"fmt"

	"repro/internal/ontology"
	"repro/internal/recognizer"
	"repro/internal/tagtree"
)

// Kind is the classification of one Web document.
type Kind int

// Document kinds.
const (
	// NoRecords: the page shows no evidence of records of interest
	// (navigation pages, front pages, error pages).
	NoRecords Kind = iota
	// SingleRecord: the page holds exactly one record (a detail page); the
	// boundary-discovery algorithm should not be applied.
	SingleRecord
	// MultipleRecords: the paper's assumed input — run the
	// Record-Boundary Discovery Algorithm.
	MultipleRecords
	// PartialRecord: the page holds a fragment of a record (a record that
	// spans several documents); only SpanAnalysis reports this kind.
	PartialRecord
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case NoRecords:
		return "no-records"
	case SingleRecord:
		return "single-record"
	case MultipleRecords:
		return "multiple-records"
	case PartialRecord:
		return "partial-record"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Result carries the classification with its supporting evidence.
type Result struct {
	Kind Kind
	// Estimate is the record-count estimate from the ontology's
	// record-identifying fields (the OM counting argument).
	Estimate float64
	// FieldCounts are the per-field indicator counts behind the estimate.
	FieldCounts map[string]int
	// FanOut is the highest fan-out in the tag tree.
	FanOut int
	// Candidates is the number of candidate separator tags in the
	// highest-fan-out subtree.
	Candidates int
}

// thresholds for the record-count estimate. Between a half and
// one-and-a-half indicators per field reads as "one record".
const (
	noRecordCeiling     = 0.5
	singleRecordCeiling = 1.5
)

// Classify decides whether the document satisfies the paper's input
// assumptions. The ontology is required: without record-identifying fields
// there is no content-based evidence of records (the structural signal
// alone cannot distinguish a record list from a navigation menu).
func Classify(doc string, ont *ontology.Ontology) (*Result, error) {
	fields, ok := ont.RecordIdentifyingFields()
	if !ok {
		return nil, fmt.Errorf("classify: ontology %s has fewer than %d record-identifying fields",
			ont.Name, ontology.MinRecordIdentifyingFields)
	}
	tree := tagtree.Parse(doc)
	// Count over the whole document: unlike boundary discovery, the
	// classifier cannot presume records live in the highest-fan-out
	// subtree (a single-record page has no such concentration).
	counts, err := recognizer.CountFields(context.Background(), ont, tree, tree.Root, nil)
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}

	res := &Result{FieldCounts: make(map[string]int, len(fields))}
	sum := 0
	for i, f := range fields {
		res.FieldCounts[f.Set.Name] = counts[i]
		sum += counts[i]
	}
	res.Estimate = float64(sum) / float64(len(fields))

	hf := tree.HighestFanOut()
	res.FanOut = hf.FanOut()
	res.Candidates = len(tagtree.Candidates(hf, tagtree.DefaultCandidateThreshold))

	switch {
	case res.Estimate < noRecordCeiling:
		res.Kind = NoRecords
	case res.Estimate < singleRecordCeiling:
		res.Kind = SingleRecord
	default:
		res.Kind = MultipleRecords
	}
	// Structural veto: "multiple records" additionally requires a repeated
	// structure to separate — at least one candidate tag and a fan-out
	// comparable to the estimate. A long article that merely *mentions*
	// many death dates has the counts but not the structure.
	if res.Kind == MultipleRecords && (res.Candidates == 0 || float64(res.FanOut)+1 < res.Estimate) {
		res.Kind = SingleRecord
	}
	return res, nil
}

// SpanResult is the outcome of analysing an ordered sequence of pages that
// may jointly hold records.
type SpanResult struct {
	// PerPage classifies each page in isolation.
	PerPage []*Result
	// Joint classifies the concatenation of all pages.
	Joint *Result
	// Spanning is true when the pages are fragments of record(s) that span
	// documents: individually they look like partial records (field counts
	// uneven, estimate below one) while jointly they complete.
	Spanning bool
}

// SpanAnalysis addresses the paper's "record spans multiple Web documents"
// question for an ordered page sequence (a story split across pages, a
// record with a continuation link). Pages that individually classify below
// a whole record but whose concatenation reaches one or more records are
// reported as spanning, and their per-page kinds are rewritten to
// PartialRecord.
func SpanAnalysis(pages []string, ont *ontology.Ontology) (*SpanResult, error) {
	out := &SpanResult{}
	var joined string
	for _, p := range pages {
		r, err := Classify(p, ont)
		if err != nil {
			return nil, err
		}
		out.PerPage = append(out.PerPage, r)
		joined += p
	}
	joint, err := Classify(joined, ont)
	if err != nil {
		return nil, err
	}
	out.Joint = joint

	// Spanning: no single page holds a whole record, but together they do.
	allPartial := len(pages) > 1
	for _, r := range out.PerPage {
		if r.Estimate >= singleRecordCeiling || r.Kind == MultipleRecords {
			allPartial = false
		}
	}
	incomplete := 0
	for _, r := range out.PerPage {
		if r.Estimate < 1 {
			incomplete++
		}
	}
	if allPartial && incomplete > 0 && joint.Estimate >= singleRecordCeiling-0.5 {
		out.Spanning = true
		for _, r := range out.PerPage {
			if r.Estimate > 0 {
				r.Kind = PartialRecord
			}
		}
	}
	return out, nil
}
