package recognizer

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// BenchmarkRecognizeCorpus times the Data-Record Table build alone over the
// bulk workload's page mix: every site's first ten pages plus one long
// listing (five times the site's most records), each recognized over its
// highest-fan-out subtree with its domain's ontology, as the OM heuristic
// does. "plan" is Recognize; "whole-chunk" is the oracle, every rule's
// regexp over every whole chunk, measured in the same run.
func BenchmarkRecognizeCorpus(b *testing.B) {
	type page struct {
		ont  *ontology.Ontology
		tree *tagtree.Tree
		n    *tagtree.Node
	}
	var pages []page
	var total int64
	for _, d := range corpus.AllDomains {
		for _, s := range append(corpus.TrainingSites(d), corpus.TestSites(d)...) {
			long := *s
			n := s.Profile.Records[1] * 5
			long.Profile.Records = [2]int{n, n}
			docs := []*corpus.Document{long.Generate(10)}
			for i := 0; i < 10; i++ {
				docs = append(docs, s.Generate(i))
			}
			for _, doc := range docs {
				tree := tagtree.Parse(doc.HTML)
				pages = append(pages, page{d.Ontology(), tree, tree.HighestFanOut()})
				total += int64(len(doc.HTML))
			}
		}
	}
	b.Run("plan", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				Recognize(p.ont, p.tree, p.n)
			}
		}
	})
	b.Run("whole-chunk", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				oracleRecognize(p.ont, p.tree, p.n)
			}
		}
	})
}
