package heuristic_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/certainty"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/heuristic"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// equivDoc is one document of the equivalence sweep with the ontology its
// OM vote uses (nil for none).
type equivDoc struct {
	name string
	html string
	ont  *ontology.Ontology
}

// equivCorpus is the 220-document corpus, a corpus.Mangle variant of each
// document, and the adversarial documents.
func equivCorpus() []equivDoc {
	docs := corpus.TestDocuments()
	for _, d := range corpus.AllDomains {
		docs = append(docs, corpus.TrainingDocuments(d)...)
	}
	var out []equivDoc
	for i, d := range docs {
		name := fmt.Sprintf("%s/%d", d.Site.Name, d.Index)
		out = append(out,
			equivDoc{name, d.HTML, d.Site.Domain.Ontology()},
			equivDoc{name + "/mangled", corpus.Mangle(d.HTML, int64(i)), nil})
	}
	for _, c := range corpus.AdversarialCases() {
		out = append(out, equivDoc{"adversarial/" + c.Name, c.HTML, nil})
	}
	return out
}

// TestStatsPassMatchesReference holds the statistics pass, the heuristics
// that rank from it, and the index-form certainty combination to the
// string-keyed reference (reference_test.go): identical candidates, each
// heuristic's ranking with scores equal bit for bit, and identical compound
// scores — over the corpus, its mangled variants and the adversarial
// documents, parsed as HTML and as XML, on a pooled arena and on the heap,
// at the paper's threshold and a low one.
func TestStatsPassMatchesReference(t *testing.T) {
	docs := equivCorpus()
	if testing.Short() {
		docs = docs[:40]
	}
	arena := tagtree.AcquireArena()
	defer arena.Release()
	for _, d := range docs {
		for _, xml := range []bool{false, true} {
			for _, th := range []float64{tagtree.DefaultCandidateThreshold, 0.02} {
				checkAgainstReference(t, d, xml, th, arena)
				checkAgainstReference(t, d, xml, th, nil)
			}
		}
	}
}

// FuzzStatsPass runs the reference comparison of
// TestStatsPassMatchesReference on arbitrary documents, in both grammars.
func FuzzStatsPass(f *testing.F) {
	var many strings.Builder
	many.WriteString("<div>")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&many, "<t%d>x<b>y</b><t%d>", i%150, i%150)
	}
	many.WriteString("</div>")
	for _, seed := range []struct {
		doc string
		xml bool
	}{
		// The synthetic root wins fan-out: its window has no start event.
		{"<i>1</i><b>2</b><i>3</i><br><i>4</i>", false},
		{"text<hr>a<hr>b<hr>c", false},
		// XML names that differ only in case are different tags.
		{"<feed><Item>a</Item><item>b</item><ITEM>c</ITEM><Item>d</Item><item>e</item></feed>", true},
		{"<DIV><Hr>a<HR>b<hr>c</DIV>", false},
		// Tags outside the built-in table.
		{"<list><entry><x-name>a</x-name></entry><entry><x-name>b</x-name></entry><entry>c</entry></list>", false},
		{"<list><entry>a</entry><Entry>b</Entry><entry>c</entry></list>", true},
		// More distinct names than the built-in table holds.
		{many.String(), false},
		{many.String(), true},
		{"<div><hr><b>A</b> one<hr><b>B</b> two<br><hr><b>C</b> three<br><hr></div>", false},
		{"", false},
	} {
		f.Add(seed.doc, seed.xml)
	}
	f.Fuzz(func(t *testing.T, doc string, xml bool) {
		arena := tagtree.AcquireArena()
		defer arena.Release()
		d := equivDoc{name: "fuzz", html: doc}
		checkAgainstReference(t, d, xml, tagtree.DefaultCandidateThreshold, arena)
		checkAgainstReference(t, d, xml, 0.02, nil)
	})
}

// checkAgainstReference parses d on arena (nil for the heap) and compares
// every product of the statistics pass with the reference: through
// NewContext, through a context assembled by hand the way perfbench's
// ledger assembles one (its statistics filled lazily, on first use), and
// through core's discovery.
func checkAgainstReference(t *testing.T, d equivDoc, xml bool, th float64, arena *tagtree.Arena) {
	t.Helper()
	where := fmt.Sprintf("%s (xml %v, threshold %v, pooled %v)", d.name, xml, th, arena != nil)
	parse := tagtree.ParseArenaContext
	if xml {
		parse = tagtree.ParseXMLArenaContext
	}
	tree, err := parse(context.Background(), d.html, tagtree.Limits{}, arena, nil)
	if err != nil {
		t.Fatalf("%s: parse: %v", where, err)
	}
	ctx := heuristic.NewContext(tree, th, d.ont)
	sub := ctx.Subtree
	want := refCandidates(sub, th)
	if !slices.Equal(ctx.Candidates, want) {
		t.Fatalf("%s: NewContext candidates %v, reference %v", where, ctx.Candidates, want)
	}
	if got := tagtree.Candidates(sub, th); !slices.Equal(got, want) {
		t.Fatalf("%s: tagtree.Candidates %v, reference %v", where, got, want)
	}
	hand := &heuristic.Context{
		Tree:        tree,
		Subtree:     sub,
		Candidates:  tagtree.Candidates(sub, th),
		Ontology:    d.ont,
		FieldCounts: ctx.FieldCounts,
	}
	refMaps := make(map[string]map[string]int)
	refRankings := make(map[string]heuristic.Ranking)
	for _, name := range certainty.AllHeuristics {
		wantR, wantOK := refRank(name, ctx)
		if wantOK {
			refMaps[name] = wantR.ToMap()
			refRankings[name] = wantR
		}
		// The hand-built context first, so its lazily filled statistics
		// come from whichever heuristic asks first.
		for _, c := range []*heuristic.Context{hand, ctx} {
			got, ok := heuristic.ByName(name).Rank(c)
			if ok != wantOK {
				t.Fatalf("%s: %s answered %v, reference %v", where, name, ok, wantOK)
			}
			if d := diffRanking(got, wantR); d != "" {
				t.Fatalf("%s: %s (hand-built %v): %s", where, name, c == hand, d)
			}
		}
	}
	gotIV, wantIV := heuristic.SDIntervals(ctx), refIntervalLengths(ctx)
	for i, c := range ctx.Candidates {
		if iv, ok := gotIV[c.Name]; ok != (len(wantIV[i]) > 0) || !slices.Equal(iv, wantIV[i]) {
			t.Fatalf("%s: SD intervals of %s %v, reference %v", where, c.Name, iv, wantIV[i])
		}
	}

	tags := make([]string, len(want))
	for i, c := range want {
		tags[i] = c.Name
	}
	wantScores := refCompound(certainty.PaperTable, certainty.AllHeuristics, refMaps, tags)
	if got := certainty.Compound(certainty.PaperTable, certainty.AllHeuristics, refMaps, tags); !equalScores(got, wantScores) {
		t.Fatalf("%s: Compound %v, reference %v", where, got, wantScores)
	}
	if len(want) == 0 {
		return
	}

	opts := core.Options{Ontology: d.ont, CandidateThreshold: th, Arena: arena}
	discover := core.DiscoverContext
	if xml {
		discover = core.DiscoverXMLContext
	}
	res, err := discover(context.Background(), d.html, opts)
	if err != nil {
		t.Fatalf("%s: discover: %v", where, err)
	}
	if !slices.Equal(res.Candidates, want) {
		t.Fatalf("%s: discovery candidates %v, reference %v", where, res.Candidates, want)
	}
	if len(want) == 1 {
		return // the single candidate is the separator outright
	}
	for _, name := range certainty.AllHeuristics {
		if d := diffRanking(res.Rankings[name], refRankings[name]); d != "" {
			t.Fatalf("%s: discovery %s: %s", where, name, d)
		}
	}
	if !equalScores(res.Scores, wantScores) {
		t.Fatalf("%s: discovery scores %v, reference %v", where, res.Scores, wantScores)
	}
}

// diffRanking describes the first difference between two rankings, scores
// compared bit for bit, or returns "".
func diffRanking(got, want heuristic.Ranking) string {
	if len(got) != len(want) {
		return fmt.Sprintf("ranking %v, reference %v", got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Tag != w.Tag || g.Rank != w.Rank || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("entry %d: %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

func equalScores(got, want []certainty.Score) bool {
	return slices.EqualFunc(got, want, func(a, b certainty.Score) bool {
		return a.Tag == b.Tag && math.Float64bits(a.CF) == math.Float64bits(b.CF)
	})
}

// TestHandContextConcurrentRanks ranks one hand-assembled context from
// several goroutines at once: its statistics are filled once, on first
// use, and every goroutine sees the answers a serial run gives.
func TestHandContextConcurrentRanks(t *testing.T) {
	tree := tagtree.Parse(corpus.TestDocuments()[0].HTML)
	sub := tree.HighestFanOut()
	newHand := func() *heuristic.Context {
		return &heuristic.Context{Tree: tree, Subtree: sub, Candidates: tagtree.Candidates(sub, tagtree.DefaultCandidateThreshold)}
	}
	want := make(map[string]heuristic.Ranking)
	serial := newHand()
	for _, h := range heuristic.All() {
		want[h.Name()], _ = h.Rank(serial)
	}
	hand := newHand()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, h := range heuristic.All() {
				if got, _ := h.Rank(hand); diffRanking(got, want[h.Name()]) != "" {
					t.Errorf("%s concurrently: %v, serially %v", h.Name(), got, want[h.Name()])
				}
			}
		}()
	}
	wg.Wait()
}
