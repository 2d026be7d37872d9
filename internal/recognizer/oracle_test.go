package recognizer

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// oracleChunk is the recognizer without scan plans, kept as the reference
// the plans are checked against: every rule's Pattern over the whole chunk
// with FindAllStringIndex, in rule order, sorted by position, object set
// and kind, stably.
func oracleChunk(entries []Entry, rules []ontology.Rule, ev tagtree.Event) []Entry {
	chunkStart := len(entries)
	for i := range rules {
		for _, m := range rules[i].Pattern.FindAllStringIndex(ev.Text, -1) {
			entries = appendEntry(entries, &rules[i], ev, m[0], m[1])
		}
	}
	slices.SortStableFunc(entries[chunkStart:], func(a, b Entry) int {
		if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
			return c
		}
		if c := strings.Compare(a.ObjectSet, b.ObjectSet); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return entries
}

// oracleRecognize is Recognize computed by oracleChunk, chunk by chunk.
func oracleRecognize(ont *ontology.Ontology, tree *tagtree.Tree, n *tagtree.Node) []Entry {
	var entries []Entry
	for _, ev := range tree.SubtreeEvents(n) {
		if ev.Kind == tagtree.EventText {
			entries = oracleChunk(entries, ont.Rules(), ev)
		}
	}
	return entries
}

// sameEntries reports the first difference between two entry lists.
func sameEntries(got, want []Entry) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d: got %+v, oracle %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d entries, oracle %d", len(got), len(want))
	}
	return nil
}

// TestRecognizeMatchesRegexpOracle: over the 220-document corpus plus one
// long listing per site (five times the site's most records), the
// Data-Record Table equals the oracle's entry for entry, for every domain's
// ontology.
func TestRecognizeMatchesRegexpOracle(t *testing.T) {
	for _, doc := range corpusWithLongListings() {
		ont := doc.Site.Domain.Ontology()
		tree := tagtree.Parse(doc.HTML)
		got := Recognize(ont, tree, tree.Root)
		if err := sameEntries(got.Entries, oracleRecognize(ont, tree, tree.Root)); err != nil {
			t.Errorf("%s (%s, %d records): %v", doc.Site.Name, ont.Name, doc.Records, err)
		}
	}
}

// corpusWithLongListings returns the 220-document corpus plus one long
// listing per site (five times the site's most records). The race detector
// slows the regexp engine some twentyfold, so under it only every tenth
// document is returned, long listings included; the plain run checks every
// document.
func corpusWithLongListings() []*corpus.Document {
	var docs []*corpus.Document
	for _, d := range corpus.AllDomains {
		docs = append(docs, corpus.TrainingDocuments(d)...)
		sites := append(corpus.TrainingSites(d), corpus.TestSites(d)...)
		for _, s := range sites {
			long := *s
			n := s.Profile.Records[1] * 5
			long.Profile.Records = [2]int{n, n}
			docs = append(docs, long.Generate(0))
		}
	}
	docs = append(docs, corpus.TestDocuments()...)
	if raceEnabled {
		var some []*corpus.Document
		for i := 0; i < len(docs); i += 10 {
			some = append(some, docs[i])
		}
		docs = some
	}
	return docs
}

// FuzzScanPlan: a single rule's plan finds exactly the spans its pattern's
// FindAllStringIndex finds, for any pattern and any text.
func FuzzScanPlan(f *testing.F) {
	texts := []string{
		"died on March 3, 1998, age 84. Funeral services Saturday at LARKIN MORTUARY; Interment, Wasatch Lawn Cemetery.",
		"Brian Fielding Frost passed away; survived by his wife. Friends may call at the chapel. born in Provo",
		"1994 Ford Taurus, 123K miles, asking $4,500. Call Bob (801) 555-1234 or 801-555-4321. excellent condition, A/C",
		"Programmer/Analyst, Acme Systems Inc. Send resume to hr@example.com. Java, C, COBOL, SQL; 3+ years experience. $45K DOE",
		"CS 142: Introduction to Programming. 3 credit hours, MWF, Room 101, Fall. Instructor: Smith. limited to 30",
		"café naïve Zoë — “quoted” \xff\xfe invalid \xe2\x82 cut\n second line 19\u00e9 x",
		"", "a", "aaaa", "_x_ x__x 19 1999 1970s",
		"ab\xffc abéc ab\xe2\x82c ab_c abc x€y xéy x\xffy x\xe2\x82y xé€y",
		"abefijmnqruvyz cdghklopstwxab " + strings.Repeat("abcdefghijklmnopqrstuvwxy", 13) + "z",
	}
	patterns := []string{
		// Nullable, case-folded, \b…\b, \B, $, ^ and non-ASCII cases.
		`a*`, `(?:x)?`, `(?i)asking`, `(?i)k`, `(?i:F)uneral`, `\bx\b`, `x\b`, `\Bx`, `x\B`,
		`\b\bx`, `x?\by`, `(?:a|\b)c`, `foo$`, `^foo`, `(?m)^x`, `x\z`,
		`café|naïve`, `[é]`, `[^a]b`, `.{0,3}x`, `x.{1,3}`, `(?s)x.y`, `\x{FFFD}`, `é+`,
		`[A-Z][a-z]+`, `(?:ab|a)(?:c|bcd)`, `a+b|a`, `x*?y`, `(?U)a+`, `[0-9]+(?:,[0-9]{3})*`,
		`(?:aa|a)(?:a|aa)?`, `a(?:a)??`, `(?U)ab?`, `(?:|a)b`, `was born(?: on)?`,
		// The DFA's edges: a mid-pattern \b or \B next to non-ASCII runes
		// and invalid bytes, . over multi-byte runes, lazy quantifiers, a
		// finite language past maxFinite, and patterns either side of the
		// states × classes bound.
		`ab\b.c`, `ab\B.c`, `b\b`, `[a-z]+\b`, `x.y`, `x.{2}y`, `x(?s:.)+y`, `x[^a]{1,2}y`,
		`x.{0,5}?y`, `[a-z]+?c`, `(?U)x[a-y]+`, `a(?:b|c)??`,
		`(?:ab|cd)(?:ef|gh)(?:ij|kl)(?:mn|op)(?:qr|st)(?:uv|wx)(?:yz|ab)`,
		`(?:abcdefghijklmnopqrstuvwxy){11}z`, `(?:abcdefghijklmnopqrstuvwxy){12}z`,
	}
	for _, p := range patterns {
		for _, text := range texts {
			f.Add(p, text)
		}
	}
	for _, name := range ontology.BuiltinNames() {
		for i, r := range ontology.Builtin(name).Rules() {
			f.Add(r.Pattern.String(), texts[i%len(texts)])
			f.Add(r.Pattern.String(), strings.Repeat(texts[(i+1)%len(texts)], 2))
		}
	}
	f.Fuzz(func(t *testing.T, pattern, text string) {
		re, err := regexp.Compile(pattern)
		if err != nil {
			return
		}
		ont := &ontology.Ontology{Name: "F", Entity: "F", ObjectSets: []*ontology.ObjectSet{{
			Name: "A", Frame: ontology.DataFrame{ValuePatterns: []*regexp.Regexp{re}},
		}}}
		ev := tagtree.Event{Kind: tagtree.EventText, Text: text}
		got := scanChunk(nil, ont, new(chunkScratch), ev)
		want := re.FindAllStringIndex(text, -1)
		spans := make([][]int, len(got))
		for i, e := range got {
			spans[i] = []int{e.Pos, e.End}
		}
		if fmt.Sprint(spans) != fmt.Sprint(want) {
			p := ont.Rules()[0].Plan
			t.Fatalf("pattern %q (%s plan, DFA %v) on %q:\n got %v\nwant %v",
				pattern, p.Mode, p.DFA != nil, text, spans, want)
		}
	})
}
