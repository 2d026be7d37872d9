package heuristic

import (
	"strings"
	"testing"

	"repro/internal/ontology"
	"repro/internal/paperdoc"
	"repro/internal/recognizer"
	"repro/internal/tagtree"
)

// figure2Context builds the shared context for the paper's Figure 2 document
// with the obituary ontology.
func figure2Context(t *testing.T) *Context {
	t.Helper()
	tree := tagtree.Parse(paperdoc.Figure2)
	return NewContext(tree, tagtree.DefaultCandidateThreshold, ontology.Builtin("obituary"))
}

func rankingString(r Ranking) string { return strings.Join(r.Tags(), " ") }

// TestFigure2IndividualRankings is the §5.3 golden test: each heuristic's
// ranking on the Figure 2 document must match the paper's reported output.
func TestFigure2IndividualRankings(t *testing.T) {
	ctx := figure2Context(t)
	want := map[string]string{
		"OM": "hr br b",
		"RP": "hr br b",
		"SD": "hr b br",
		"IT": "hr br b",
		"HT": "b br hr",
	}
	for _, h := range All() {
		r, ok := h.Rank(ctx)
		if !ok {
			t.Errorf("%s declined to answer", h.Name())
			continue
		}
		if got := rankingString(r); got != want[h.Name()] {
			t.Errorf("%s ranking = %q, want %q (scores: %+v)", h.Name(), got, want[h.Name()], r)
		}
	}
}

func TestHTCountsFigure2(t *testing.T) {
	ctx := figure2Context(t)
	r, ok := HT{}.Rank(ctx)
	if !ok {
		t.Fatal("HT declined")
	}
	wantScores := map[string]float64{"b": 8, "br": 5, "hr": 4}
	for _, e := range r {
		if e.Score != wantScores[e.Tag] {
			t.Errorf("HT %s score = %v, want %v", e.Tag, e.Score, wantScores[e.Tag])
		}
	}
}

func TestHTNoCandidates(t *testing.T) {
	ctx := &Context{}
	if _, ok := (HT{}).Rank(ctx); ok {
		t.Error("HT should decline with no candidates")
	}
}

func TestITUsesListOrder(t *testing.T) {
	ctx := figure2Context(t)
	r, _ := IT{}.Rank(ctx)
	// hr is 1st on the list, br 7th, b 11th.
	wantScores := map[string]float64{"hr": 1, "br": 7, "b": 11}
	for _, e := range r {
		if e.Score != wantScores[e.Tag] {
			t.Errorf("IT %s score = %v, want %v", e.Tag, e.Score, wantScores[e.Tag])
		}
	}
}

func TestITDiscardsUnlistedTags(t *testing.T) {
	tree := tagtree.Parse("<div><blink>a</blink><blink>b</blink><p>c</p><p>d</p></div>")
	ctx := NewContext(tree, 0, nil)
	r, ok := IT{}.Rank(ctx)
	if !ok {
		t.Fatal("IT declined")
	}
	if r.RankOf("blink") != 0 {
		t.Error("blink should be discarded (not on the separator list)")
	}
	if r.RankOf("p") != 1 {
		t.Errorf("p rank = %d, want 1", r.RankOf("p"))
	}
}

func TestITDeclinesWhenNothingListed(t *testing.T) {
	tree := tagtree.Parse("<div><blink>a</blink><blink>b</blink><marquee>c</marquee><marquee>d</marquee></div>")
	ctx := NewContext(tree, 0, nil)
	if _, ok := (IT{}).Rank(ctx); ok {
		t.Error("IT should decline when no candidate is on the list")
	}
}

func TestITCustomList(t *testing.T) {
	tree := tagtree.Parse("<div><p>a</p><hr><p>b</p><hr></div>")
	ctx := NewContext(tree, 0, nil)
	r, ok := IT{List: []string{"p", "hr"}}.Rank(ctx)
	if !ok {
		t.Fatal("IT declined")
	}
	if r.RankOf("p") != 1 || r.RankOf("hr") != 2 {
		t.Errorf("custom list ranking wrong: %+v", r)
	}
}

func TestSDPrefersUniformIntervals(t *testing.T) {
	// sep occurs at perfectly regular 20-char intervals; x floats around
	// inside each record, so its intervals vary (37 vs 11 chars).
	doc := "<div>" +
		"<sep>aa<x>aaaaaaaaaaaaaaaaaa" +
		"<sep>ccccccccccccccccccc<x>c" +
		"<sep>ffffffffff<x>ffffffffff" +
		"<sep></div>"
	ctx := NewContext(tagtree.Parse(doc), 0, nil)
	r, ok := SD{}.Rank(ctx)
	if !ok {
		t.Fatal("SD declined")
	}
	if r.Tags()[0] != "sep" {
		t.Errorf("SD ranking = %v, want sep first", r.Tags())
	}
}

func TestSDTooFewOccurrencesRankLast(t *testing.T) {
	// once appears twice (one interval): no spread measurable → last.
	doc := "<div><once>a<sep>bb<sep>bb<sep>bb<sep>cc<once></div>"
	ctx := NewContext(tagtree.Parse(doc), 0, nil)
	r, ok := SD{}.Rank(ctx)
	if !ok {
		t.Fatal("SD declined")
	}
	if last := r[len(r)-1]; last.Tag != "once" {
		t.Errorf("SD ranking = %+v, want once last", r)
	}
}

func TestRPFigure2Pairs(t *testing.T) {
	ctx := figure2Context(t)
	pairs := RPPairs(ctx)
	if got := pairs[Pair{First: "hr", Second: "b"}]; got != 2 {
		t.Errorf("<hr><b> pairs = %d, want 2", got)
	}
	if got := pairs[Pair{First: "br", Second: "hr"}]; got != 2 {
		t.Errorf("<br><hr> pairs = %d, want 2", got)
	}
	// No other pair should exist in the Figure 2 document: every other
	// adjacency has intervening prose.
	if len(pairs) != 2 {
		t.Errorf("pairs = %v, want exactly the paper's two", pairs)
	}
}

func TestRPScoresFigure2(t *testing.T) {
	ctx := figure2Context(t)
	r, ok := RP{}.Rank(ctx)
	if !ok {
		t.Fatal("RP declined")
	}
	// hr: |2-4| = 2; br: |2-5| = 3; b: |2-8| = 6.
	wantScores := map[string]float64{"hr": 2, "br": 3, "b": 6}
	for _, e := range r {
		if e.Score != wantScores[e.Tag] {
			t.Errorf("RP %s score = %v, want %v", e.Tag, e.Score, wantScores[e.Tag])
		}
	}
}

func TestRPDeclinesWithoutPairs(t *testing.T) {
	// Every adjacency has text between the tags.
	doc := "<div><p>a</p>x<p>b</p>y<p>c</p>z<q>q</q>w<q>r</q></div>"
	ctx := NewContext(tagtree.Parse(doc), 0, nil)
	if _, ok := (RP{}).Rank(ctx); ok {
		t.Error("RP should decline with no adjacent pairs")
	}
}

func TestRPWhitespaceDoesNotBreakAdjacency(t *testing.T) {
	doc := "<div><hr>\n\t <b>x</b>text<hr>\n<b>y</b>text<hr>\n<b>z</b>text<hr></div>"
	ctx := NewContext(tagtree.Parse(doc), 0, nil)
	pairs := RPPairs(ctx)
	if got := pairs[Pair{First: "hr", Second: "b"}]; got != 3 {
		t.Errorf("<hr><b> pairs = %d, want 3 (whitespace must not break adjacency)", got)
	}
}

func TestRPEndTagsDoNotBreakAdjacency(t *testing.T) {
	// </b><br>: the b start-tag has text inside, so (b, br) is NOT a pair,
	// but (br, hr) later is, even crossing the </b>.
	doc := "<div><b>x</b><br><hr><b>y</b><br><hr><b>z</b><br><hr></div>"
	ctx := NewContext(tagtree.Parse(doc), 0, nil)
	pairs := RPPairs(ctx)
	if got := pairs[Pair{First: "b", Second: "br"}]; got != 0 {
		t.Errorf("(b,br) pairs = %d, want 0 (text inside b intervenes)", got)
	}
	if got := pairs[Pair{First: "br", Second: "hr"}]; got != 3 {
		t.Errorf("(br,hr) pairs = %d, want 3", got)
	}
	if got := pairs[Pair{First: "hr", Second: "b"}]; got != 2 {
		t.Errorf("(hr,b) pairs = %d, want 2", got)
	}
}

func TestRPPairFloorFiltersRarePairs(t *testing.T) {
	// (a,b) occurs once; candidate counts are 10 each, so the floor
	// (10% × 10 = 1) excludes count-1 pairs (strictly greater required).
	var b strings.Builder
	b.WriteString("<div>")
	b.WriteString("<a></a><b></b>") // one adjacent pair
	for i := 0; i < 9; i++ {
		b.WriteString("<a></a>x<b></b>y") // non-adjacent
	}
	b.WriteString("</div>")
	ctx := NewContext(tagtree.Parse(b.String()), 0, nil)
	if _, ok := (RP{}).Rank(ctx); ok {
		t.Error("RP should decline: only pair is at the floor")
	}
}

func TestOMFigure2Scores(t *testing.T) {
	ctx := figure2Context(t)
	r, ok := OM{}.Rank(ctx)
	if !ok {
		t.Fatal("OM declined")
	}
	// Estimate is 3.0; |4-3|=1, |5-3|=2, |8-3|=5.
	wantScores := map[string]float64{"hr": 1, "br": 2, "b": 5}
	for _, e := range r {
		if e.Score != wantScores[e.Tag] {
			t.Errorf("OM %s score = %v, want %v", e.Tag, e.Score, wantScores[e.Tag])
		}
	}
}

func TestOMDeclinesWithoutOntology(t *testing.T) {
	tree := tagtree.Parse(paperdoc.Figure2)
	ctx := NewContext(tree, tagtree.DefaultCandidateThreshold, nil)
	if _, ok := (OM{}).Rank(ctx); ok {
		t.Error("OM should decline without an ontology")
	}
}

// rankScores ranks a tag → score map with rank.
func rankScores(scores map[string]float64, ascending bool) Ranking {
	var r Ranking
	for tag, score := range scores {
		r = append(r, Ranked{Tag: tag, Score: score})
	}
	return rank(r, ascending)
}

func TestRankByScoreCompetitionRanking(t *testing.T) {
	scores := map[string]float64{"a": 1, "b": 2, "c": 2, "d": 3}
	r := rankScores(scores, true)
	wantRanks := map[string]int{"a": 1, "b": 2, "c": 2, "d": 4}
	for _, e := range r {
		if e.Rank != wantRanks[e.Tag] {
			t.Errorf("%s rank = %d, want %d", e.Tag, e.Rank, wantRanks[e.Tag])
		}
	}
}

func TestRankByScoreDescending(t *testing.T) {
	scores := map[string]float64{"low": 1, "high": 9}
	r := rankScores(scores, false)
	if r[0].Tag != "high" {
		t.Errorf("descending ranking = %+v", r)
	}
}

func TestRankingHelpers(t *testing.T) {
	r := Ranking{{Tag: "hr", Rank: 1}, {Tag: "b", Rank: 2}}
	if r.RankOf("hr") != 1 || r.RankOf("b") != 2 || r.RankOf("zz") != 0 {
		t.Error("RankOf wrong")
	}
	if got := strings.Join(r.Tags(), ","); got != "hr,b" {
		t.Errorf("Tags = %q", got)
	}
	m := r.ToMap()
	if m["hr"] != 1 || m["b"] != 2 || len(m) != 2 {
		t.Errorf("ToMap = %v", m)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"OM", "RP", "SD", "IT", "HT"} {
		h := ByName(name)
		if h == nil || h.Name() != name {
			t.Errorf("ByName(%q) = %v", name, h)
		}
	}
	if ByName("XX") != nil {
		t.Error("unknown name should be nil")
	}
}

func TestNewContextFigure2(t *testing.T) {
	ctx := figure2Context(t)
	if ctx.Subtree.Name != "td" {
		t.Errorf("subtree = %s, want td", ctx.Subtree.Name)
	}
	if !ctx.IsCandidate("hr") || ctx.IsCandidate("h1") {
		t.Error("candidate set wrong")
	}
	if ctx.CandidateCount("b") != 8 {
		t.Errorf("b count = %d, want 8", ctx.CandidateCount("b"))
	}
	// NewContext counts the record-identifying fields instead of building
	// the Data-Record Table; the counts are the full table's.
	if ctx.Table != nil {
		t.Error("NewContext built a Data-Record Table")
	}
	fields, _ := ctx.Ontology.RecordIdentifyingFields()
	table := recognizer.Recognize(ctx.Ontology, ctx.Tree, ctx.Subtree)
	if len(ctx.FieldCounts) != len(fields) {
		t.Fatalf("field counts = %v, want one per field of %d", ctx.FieldCounts, len(fields))
	}
	for i, f := range fields {
		if got, want := ctx.FieldCounts[i], recognizer.FieldCount(table, f); got != want || got == 0 {
			t.Errorf("%s count = %d, want %d (the table's, nonzero)", f.Set.Name, got, want)
		}
	}
}
