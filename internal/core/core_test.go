package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/certainty"
	"repro/internal/corpus"
	"repro/internal/ontology"
	"repro/internal/paperdoc"
	"repro/internal/tagtree"
)

func discoverFigure2(t *testing.T) *Result {
	t.Helper()
	res, err := Discover(paperdoc.Figure2, Options{Ontology: ontology.Builtin("obituary")})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFigure2WorkedExample is the paper's §5.3 golden test end-to-end:
// ORSIH on the Figure 2 document yields hr 99.96%, b 64.75%, br 56.34%.
func TestFigure2WorkedExample(t *testing.T) {
	res := discoverFigure2(t)
	if res.Separator != "hr" {
		t.Fatalf("separator = %s, want hr\n%s", res.Separator, Explain(res))
	}
	want := []struct {
		tag string
		cf  float64
	}{{"hr", 0.9996}, {"b", 0.6475}, {"br", 0.5634}}
	if len(res.Scores) != 3 {
		t.Fatalf("scores = %v", res.Scores)
	}
	for i, w := range want {
		if res.Scores[i].Tag != w.tag {
			t.Errorf("score %d tag = %s, want %s", i, res.Scores[i].Tag, w.tag)
		}
		if math.Abs(res.Scores[i].CF-w.cf) > 5e-5 {
			t.Errorf("%s CF = %.4f, want %.4f", w.tag, res.Scores[i].CF, w.cf)
		}
	}
	if len(res.TopTags) != 1 || res.TopTags[0] != "hr" {
		t.Errorf("TopTags = %v, want [hr]", res.TopTags)
	}
}

func TestFigure2AllHeuristicsAnswered(t *testing.T) {
	res := discoverFigure2(t)
	for _, h := range certainty.AllHeuristics {
		if _, ok := res.Rankings[h]; !ok {
			t.Errorf("heuristic %s missing from rankings", h)
		}
	}
}

func TestFigure2WithoutOntology(t *testing.T) {
	// Without an ontology OM declines; RSIH still picks hr.
	res, err := Discover(paperdoc.Figure2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Rankings["OM"]; ok {
		t.Error("OM should have declined without an ontology")
	}
	if res.Separator != "hr" {
		t.Errorf("separator = %s, want hr", res.Separator)
	}
}

func TestSplitFigure2Records(t *testing.T) {
	res := discoverFigure2(t)
	recs := Split(paperdoc.Figure2, res)
	// Leading chunk (heading) + three obituaries; the trailing chunk after
	// the final hr is empty and dropped.
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	wantNames := []string{"Funeral Notices", "Lemar K. Adamson", "Brian Fielding Frost", "Leonard Kenneth Gunther"}
	for i, w := range wantNames {
		if !strings.Contains(recs[i].Text, w) {
			t.Errorf("record %d text %q does not contain %q", i, recs[i].Text[:60], w)
		}
	}
	// Each true obituary contains exactly one death phrase.
	for i := 1; i < 4; i++ {
		n := strings.Count(recs[i].Text, "died on") + strings.Count(recs[i].Text, "passed away")
		if n != 1 {
			t.Errorf("record %d death phrases = %d, want 1", i, n)
		}
	}
}

func TestSplitRecordsAreCleanText(t *testing.T) {
	res := discoverFigure2(t)
	for i, r := range Split(paperdoc.Figure2, res) {
		if strings.ContainsAny(r.Text, "<>") {
			t.Errorf("record %d text contains markup: %q", i, r.Text)
		}
		if r.Start >= r.End {
			t.Errorf("record %d bad range [%d,%d)", i, r.Start, r.End)
		}
		if !strings.Contains(paperdoc.Figure2[r.Start:r.End], r.HTML[:10]) {
			t.Errorf("record %d HTML does not match its range", i)
		}
	}
}

func TestSplitOffsetsPartitionSubtree(t *testing.T) {
	res := discoverFigure2(t)
	recs := Split(paperdoc.Figure2, res)
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].End {
			t.Errorf("records %d and %d overlap", i-1, i)
		}
	}
}

func TestSingleCandidateShortCircuit(t *testing.T) {
	// Only one candidate tag: it is the separator with certainty 1 and no
	// heuristics are consulted (Section 3).
	doc := "<div><p>one</p><p>two</p><p>three</p></div>"
	res, err := Discover(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "p" {
		t.Errorf("separator = %s, want p", res.Separator)
	}
	if res.Scores[0].CF != 1 {
		t.Errorf("CF = %v, want 1", res.Scores[0].CF)
	}
	if len(res.Rankings) != 0 {
		t.Errorf("rankings should be empty for single candidate, got %v", res.Rankings)
	}
}

func TestDiscoverNoCandidates(t *testing.T) {
	for _, doc := range []string{"", "plain text only"} {
		if _, err := Discover(doc, Options{}); err == nil {
			t.Errorf("doc %q: expected ErrNoCandidates", doc)
		}
	}
	// A document with tags but no records degenerates to the single-
	// candidate short circuit rather than an error.
	res, err := Discover("<html></html>", Options{})
	if err != nil || res.Separator != "html" {
		t.Errorf("degenerate doc: sep=%v err=%v", res, err)
	}
}

func TestCombinationSubset(t *testing.T) {
	// With only HT, the Figure 2 separator is (wrongly) b — showing the
	// combination option takes effect.
	res, err := Discover(paperdoc.Figure2, Options{
		Combination: certainty.Combination{certainty.HT},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "b" {
		t.Errorf("HT-only separator = %s, want b", res.Separator)
	}
	if len(res.Rankings) != 1 {
		t.Errorf("rankings = %v, want HT only", res.Rankings)
	}
}

func TestCustomFactors(t *testing.T) {
	// A factor table that trusts only HT flips the answer to b even with
	// all heuristics running.
	factors := certainty.Table{
		"HT": {0.99, 0.0, 0.0, 0.0},
		"OM": {0.0}, "RP": {0.0}, "SD": {0.0}, "IT": {0.0},
	}
	res, err := Discover(paperdoc.Figure2, Options{
		Factors:  factors,
		Ontology: ontology.Builtin("obituary"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "b" {
		t.Errorf("separator = %s, want b under HT-only factors", res.Separator)
	}
}

func TestCustomSeparatorList(t *testing.T) {
	// Putting b first on IT's list (and nothing else) boosts b.
	res, err := Discover(paperdoc.Figure2, Options{
		Combination:   certainty.Combination{certainty.IT},
		SeparatorList: []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "b" {
		t.Errorf("separator = %s, want b", res.Separator)
	}
}

func TestCandidateThresholdOption(t *testing.T) {
	// With a tiny threshold, h1 becomes a candidate too.
	res, err := Discover(paperdoc.Figure2, Options{CandidateThreshold: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Candidates {
		if c.Name == "h1" {
			found = true
		}
	}
	if !found {
		t.Errorf("h1 missing from candidates at low threshold: %v", res.Candidates)
	}
	if res.Separator != "hr" {
		t.Errorf("separator = %s, want hr even at low threshold", res.Separator)
	}
}

func TestExplainFormat(t *testing.T) {
	res := discoverFigure2(t)
	got := Explain(res)
	for _, want := range []string{
		"highest-fan-out subtree: <td> (fan-out 18)",
		"candidates: b(8) br(5) hr(4)",
		"OM: [(hr, 1), (br, 2), (b, 3)]",
		"HT: [(b, 1), (br, 2), (hr, 3)]",
		"(hr, 99.96%)",
		"separator: <hr>",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Explain output missing %q:\n%s", want, got)
		}
	}
}

func TestExplainNoAnswerHeuristic(t *testing.T) {
	res, err := Discover(paperdoc.Figure2, Options{}) // no ontology → OM silent
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(res), "OM: (no answer)") {
		t.Error("Explain should show OM declined")
	}
}

func TestDiscoverXML(t *testing.T) {
	// An XML feed of repeated <listing> elements: discovery generalizes
	// per the paper's footnote 1. The HTML separator list means nothing
	// here, so IT is given the vocabulary's plausible wrappers.
	xml := `<?xml version="1.0"?>
<catalog>
  <listing><name>Adamson</name><price>100</price></listing>
  <listing><name>Frost</name><price>200</price></listing>
  <listing><name>Gunther</name><price>300</price></listing>
  <listing><name>Jensen</name><price>400</price></listing>
</catalog>`
	res, err := DiscoverXML(xml, Options{SeparatorList: []string{"listing", "entry", "item"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "listing" {
		t.Errorf("separator = %s, want listing\n%s", res.Separator, Explain(res))
	}
	if res.Subtree.Name != "catalog" {
		t.Errorf("subtree = %s, want catalog", res.Subtree.Name)
	}
}

func TestDiscoverXMLCaseSensitiveTags(t *testing.T) {
	xml := `<Feed><Entry>a b c</Entry><Entry>d e f</Entry><Entry>g h i</Entry></Feed>`
	res, err := DiscoverXML(xml, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "Entry" {
		t.Errorf("separator = %q, want Entry (case preserved)", res.Separator)
	}
}

// TestSplitXMLKeepsXMLSemantics is the regression test for the old
// re-parse bug: Split used to re-tokenize every chunk with tagtree.Parse
// (HTML semantics), so an XML element whose name collides with an HTML
// raw-text element (title, script, style) leaked its child markup into
// Record.Text as literal "<...>" text. Splitting now reads the original
// tree's event stream, so the XML parse semantics carry through.
func TestSplitXMLKeepsXMLSemantics(t *testing.T) {
	xml := `<catalog>` +
		`<listing><title><b>First</b> edition</title><price>100</price></listing>` +
		`<listing><title><b>Second</b> edition</title><price>200</price></listing>` +
		`<listing><title><b>Third</b> edition</title><price>300</price></listing>` +
		`</catalog>`
	res, err := DiscoverXML(xml, Options{SeparatorList: []string{"listing"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "listing" {
		t.Fatalf("separator = %s, want listing\n%s", res.Separator, Explain(res))
	}
	recs := Split(xml, res)
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	for i, want := range []string{"First edition 100", "Second edition 200", "Third edition 300"} {
		if recs[i].Text != want {
			t.Errorf("record %d text = %q, want %q", i, recs[i].Text, want)
		}
		if strings.ContainsAny(recs[i].Text, "<>") {
			t.Errorf("record %d text contains markup (HTML raw-text semantics leaked): %q",
				i, recs[i].Text)
		}
	}
}

// TestSplitMatchesSubtreeText: the event-stream split must reproduce, per
// record, exactly the text a fresh parse of the chunk would produce for an
// HTML document (the pre-rewrite behavior), keeping Split's contract stable.
func TestSplitMatchesSubtreeText(t *testing.T) {
	res := discoverFigure2(t)
	for i, r := range Split(paperdoc.Figure2, res) {
		want := tagtree.Parse(r.HTML).Root.Text()
		if r.Text != want {
			t.Errorf("record %d text = %q, re-parse gives %q", i, r.Text, want)
		}
	}
}

func TestDiscoverTreeReuse(t *testing.T) {
	tree := tagtree.Parse(paperdoc.Figure2)
	res, err := DiscoverTree(tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree != tree {
		t.Error("result should reference the supplied tree")
	}
}

// TestNilArenaResultOutlivesLaterDiscoveries pins the heap lifetime of a
// nil-arena result: its tree lives in a one-shot arena that is never
// pooled, so neither later nil-arena discoveries nor pooled-arena parses
// can reuse its memory. If the one-shot arena ever entered the pool, a
// later parse would overwrite resA.Tree in place.
func TestNilArenaResultOutlivesLaterDiscoveries(t *testing.T) {
	docA := paperdoc.Figure2
	resA, err := Discover(docA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	splitA := Split(docA, resA)

	others := corpus.TestDocuments()
	for i := 0; i < 100; i++ {
		doc := others[i%len(others)].HTML
		if _, err := Discover(doc, Options{}); err != nil {
			t.Fatal(err)
		}
		a := tagtree.AcquireArena()
		if _, err := tagtree.ParseArenaContext(context.Background(), doc, tagtree.Limits{}, a, nil); err != nil {
			t.Fatal(err)
		}
		a.Release()
	}

	if !reflect.DeepEqual(resA.Tree, tagtree.Parse(docA)) {
		t.Error("nil-arena result tree changed after later discoveries")
	}
	if got := Split(docA, resA); !reflect.DeepEqual(got, splitA) {
		t.Errorf("Split changed after later discoveries:\n got  %v\n want %v", got, splitA)
	}
}
