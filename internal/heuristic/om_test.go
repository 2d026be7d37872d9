package heuristic

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ontology"
	"repro/internal/recognizer"
	"repro/internal/tagtree"
)

// tableOnlyContext builds a context by hand the way an extraction caller
// that already holds the Data-Record Table would: every field set except
// FieldCounts, with Table from recognizer.RecognizeContext.
func tableOnlyContext(t *testing.T, tree *tagtree.Tree, ont *ontology.Ontology) *Context {
	t.Helper()
	sub := tree.HighestFanOut()
	table, err := recognizer.RecognizeContext(context.Background(), ont, tree, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{
		Tree:            tree,
		Subtree:         sub,
		Candidates:      tagtree.Candidates(sub, tagtree.DefaultCandidateThreshold),
		Ontology:        ont,
		Table:           table,
		SubtreeTextLens: tree.SubtreeTextLens(sub),
	}
}

// TestTableOnlyContextMatchesNewContext: on every corpus document, with its
// domain's ontology and with one of fewer than three record-identifying
// fields, a context carrying only the full Data-Record Table and a
// NewContext context (field counts, no table) give identical OM rankings,
// OMEstimate and DeclineReason.
func TestTableOnlyContextMatchesNewContext(t *testing.T) {
	short := ontology.MustParse("ontology X\nentity X\nobject A : one-to-one {\nkeyword `died|passed away`\n}\n" +
		"object B : one-to-one {\nkeyword `[Ff]uneral`\n}")
	if _, ok := short.RecordIdentifyingFields(); ok {
		t.Fatal("short ontology has three record-identifying fields")
	}
	var docs []*corpus.Document
	for _, d := range corpus.AllDomains {
		docs = append(docs, corpus.TrainingDocuments(d)...)
	}
	docs = append(docs, corpus.TestDocuments()...)
	for _, doc := range docs {
		tree := tagtree.Parse(doc.HTML)
		for _, ont := range []*ontology.Ontology{doc.Site.Domain.Ontology(), short} {
			byTable := tableOnlyContext(t, tree, ont)
			byCounts := NewContext(tree, tagtree.DefaultCandidateThreshold, ont)
			if byCounts.Table != nil {
				t.Fatal("NewContext built a Data-Record Table")
			}
			rt, okT := OM{}.Rank(byTable)
			rc, okC := OM{}.Rank(byCounts)
			if okT != okC || !reflect.DeepEqual(rt, rc) {
				t.Errorf("%s, %s: OM ranking by table %v (%v), by counts %v (%v)", doc.Site.Name, ont.Name, rt, okT, rc, okC)
			}
			et, okT := OMEstimate(byTable)
			ec, okC := OMEstimate(byCounts)
			if okT != okC || et != ec {
				t.Errorf("%s, %s: estimate by table %v (%v), by counts %v (%v)", doc.Site.Name, ont.Name, et, okT, ec, okC)
			}
			dt, dc := DeclineReason("OM", byTable), DeclineReason("OM", byCounts)
			if dt != dc {
				t.Errorf("%s, %s: decline reason by table %q, by counts %q", doc.Site.Name, ont.Name, dt, dc)
			}
			if ont == short && len(byCounts.Candidates) > 0 && dc != "fewer than three record-identifying fields matched" {
				t.Errorf("%s: short ontology decline reason %q", doc.Site.Name, dc)
			}
		}
	}
}
