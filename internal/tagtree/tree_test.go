package tagtree

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/htmlparse"
	"repro/internal/paperdoc"
)

// shape renders a subtree in compact nested-paren notation: name, then
// children inside parens, siblings space-separated.
func shape(n *Node) string {
	var b strings.Builder
	writeShape(&b, n)
	return b.String()
}

func writeShape(b *strings.Builder, n *Node) {
	b.WriteString(n.Name)
	if len(n.Children) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		writeShape(b, c)
	}
	b.WriteByte(')')
}

func TestParseFigure2TreeShape(t *testing.T) {
	tree := Parse(paperdoc.Figure2)
	got := shape(tree.Root)
	if got != paperdoc.TreeShape {
		t.Errorf("tree shape:\n got  %s\n want %s", got, paperdoc.TreeShape)
	}
}

func TestParseFigure2HighestFanOut(t *testing.T) {
	tree := Parse(paperdoc.Figure2)
	hf := tree.HighestFanOut()
	if hf.Name != "td" {
		t.Fatalf("highest-fan-out node = %s, want td", hf.Name)
	}
	if hf.FanOut() != 18 {
		t.Errorf("fan-out = %d, want 18", hf.FanOut())
	}
	if hf.SubtreeTagCount() != 18 {
		t.Errorf("subtree tag count = %d, want 18", hf.SubtreeTagCount())
	}
}

func TestParseFigure2Candidates(t *testing.T) {
	tree := Parse(paperdoc.Figure2)
	hf := tree.HighestFanOut()
	cands := Candidates(hf, DefaultCandidateThreshold)
	want := []Candidate{{"b", 8}, {"br", 5}, {"hr", 4}}
	if len(cands) != len(want) {
		t.Fatalf("candidates = %v, want %v", cands, want)
	}
	for i := range want {
		if cands[i] != want[i] {
			t.Errorf("candidate %d = %v, want %v", i, cands[i], want[i])
		}
	}
}

func TestCandidatesThresholdExcludesRareTags(t *testing.T) {
	// h1 appears once out of 18 tags (5.6% < 10%): irrelevant.
	tree := Parse(paperdoc.Figure2)
	hf := tree.HighestFanOut()
	for _, c := range Candidates(hf, DefaultCandidateThreshold) {
		if c.Name == "h1" {
			t.Errorf("h1 should be irrelevant, got candidate %v", c)
		}
	}
	// With threshold 0, every tag is a candidate.
	all := Candidates(hf, 0)
	if len(all) != 4 {
		t.Errorf("threshold 0 candidates = %v, want 4 tags", all)
	}
}

func TestNormalizeInsertsMissingEndTags(t *testing.T) {
	toks := htmlparse.Tokenize("<div><b>bold<i>both</div>")
	norm := Normalize(toks)
	var ends []string
	synthetic := 0
	for _, tok := range norm {
		if tok.Type == htmlparse.EndTag {
			ends = append(ends, tok.Name)
			if tok.Synthetic {
				synthetic++
			}
		}
	}
	if got, want := strings.Join(ends, " "), "i b div"; got != want {
		t.Errorf("end tags = %q, want %q", got, want)
	}
	if synthetic != 2 {
		t.Errorf("synthetic end tags = %d, want 2 (i and b)", synthetic)
	}
}

func TestNormalizeDiscardsOrphanEndTags(t *testing.T) {
	toks := htmlparse.Tokenize("</b>text</div><p>x</p>")
	norm := Normalize(toks)
	for _, tok := range norm {
		if tok.Type == htmlparse.EndTag && (tok.Name == "b" || tok.Name == "div") {
			t.Errorf("orphan end tag %s survived normalization", tok.Name)
		}
	}
}

func TestNormalizeDiscardsComments(t *testing.T) {
	toks := htmlparse.Tokenize("<p><!-- hidden -->text</p>")
	norm := Normalize(toks)
	for _, tok := range norm {
		if tok.Type == htmlparse.Comment || tok.Type == htmlparse.Doctype {
			t.Errorf("comment survived normalization: %v", tok)
		}
	}
}

func TestNormalizeVoidElements(t *testing.T) {
	tree := Parse("<p>a<br>b<hr>c</p>")
	p := tree.Root.Find("p")
	if p == nil {
		t.Fatal("no p node")
	}
	if got := shape(p); got != "p(br hr)" {
		t.Errorf("shape = %q, want p(br hr)", got)
	}
}

func TestNormalizeEOFClosesOpenTags(t *testing.T) {
	toks := htmlparse.Tokenize("<html><body><b>unclosed")
	norm := Normalize(toks)
	opens, closes := 0, 0
	for _, tok := range norm {
		switch tok.Type {
		case htmlparse.StartTag:
			if !htmlparse.IsVoid(tok.Name) && !tok.SelfClosing {
				opens++
			}
		case htmlparse.EndTag:
			closes++
		}
	}
	if opens != closes {
		t.Errorf("opens = %d, closes = %d; stream not balanced", opens, closes)
	}
}

func TestAutoCloseListItems(t *testing.T) {
	tree := Parse("<ul><li>one<li>two<li>three</ul>")
	ul := tree.Root.Find("ul")
	if ul == nil {
		t.Fatal("no ul")
	}
	if got := shape(ul); got != "ul(li li li)" {
		t.Errorf("shape = %q, want ul(li li li)", got)
	}
}

func TestAutoCloseParagraphs(t *testing.T) {
	tree := Parse("<body><p>one<p>two<p>three</body>")
	body := tree.Root.Find("body")
	if got := shape(body); got != "body(p p p)" {
		t.Errorf("shape = %q, want body(p p p)", got)
	}
}

func TestAutoCloseTableCells(t *testing.T) {
	tree := Parse("<table><tr><td>a<td>b<tr><td>c</table>")
	table := tree.Root.Find("table")
	if got := shape(table); got != "table(tr(td td) tr(td))" {
		t.Errorf("shape = %q, want table(tr(td td) tr(td))", got)
	}
}

func TestAutoCloseDoesNotCrossTableBoundary(t *testing.T) {
	// The inner table's td must not be closed by the outer table's tr.
	tree := Parse("<table><tr><td><table><tr><td>x</td></tr></table></td></tr><tr><td>y</td></tr></table>")
	table := tree.Root.Find("table")
	if got := shape(table); got != "table(tr(td(table(tr(td)))) tr(td))" {
		t.Errorf("shape = %q", got)
	}
}

func TestNodeText(t *testing.T) {
	tree := Parse("<div>  Hello <b>bold</b>   world  </div>")
	div := tree.Root.Find("div")
	if got := div.Text(); got != "Hello bold world" {
		t.Errorf("Text() = %q, want %q", got, "Hello bold world")
	}
}

func TestNodeTextDocumentOrder(t *testing.T) {
	tree := Parse("<div>a<b>c</b>e<i>g</i>i</div>")
	div := tree.Root.Find("div")
	if got := div.Text(); got != "a c e g i" {
		t.Errorf("Text() = %q, want %q", got, "a c e g i")
	}
}

func TestCollapseSpace(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"   ", ""},
		{"a", "a"},
		{"  a  b  ", "a b"},
		{"a\n\tb\r\nc", "a b c"},
	}
	for _, c := range cases {
		if got := CollapseSpace(c.in); got != c.want {
			t.Errorf("CollapseSpace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestOccurrences(t *testing.T) {
	doc := "<div><hr>a<hr>b<hr></div>"
	tree := Parse(doc)
	div := tree.Root.Find("div")
	pos := Occurrences(tree, div, "hr")
	if len(pos) != 3 {
		t.Fatalf("occurrences = %v, want 3", pos)
	}
	for i, p := range pos {
		if doc[p:p+4] != "<hr>" {
			t.Errorf("occurrence %d at %d is %q, not <hr>", i, p, doc[p:p+4])
		}
	}
}

func TestSubtreeEventsCoverSubtreeOnly(t *testing.T) {
	tree := Parse("<body>x<div><b>in</b></div>y</body>")
	div := tree.Root.Find("div")
	evs := tree.SubtreeEvents(div)
	for _, ev := range evs {
		if ev.Kind == EventText && (ev.Text == "x" || ev.Text == "y") {
			t.Errorf("subtree events leak outside text %q", ev.Text)
		}
	}
	if len(evs) == 0 || evs[0].Kind != EventStart || evs[0].Node != div {
		t.Errorf("first event should be div start, got %+v", evs)
	}
}

func TestHighestFanOutTieBreaksEarlier(t *testing.T) {
	tree := Parse("<body><div><p>a</p><p>b</p></div><section><p>c</p><p>d</p></section></body>")
	hf := tree.HighestFanOut()
	// body has 2 children, div has 2, section has 2; earliest max (body) wins.
	if hf.Name != "body" {
		t.Errorf("highest fan-out = %s, want body (earliest among ties)", hf.Name)
	}
}

func TestHighestFanOutPrefersElementOverDocumentRoot(t *testing.T) {
	tree := Parse("<p>a</p><p>b</p>") // two top-level elements: root fan-out 2
	hf := tree.HighestFanOut()
	if hf != tree.Root {
		t.Errorf("expected document root when nothing wraps content, got %s", hf.Name)
	}
	tree2 := Parse("<div><p>a</p><p>b</p></div>")
	if hf2 := tree2.HighestFanOut(); hf2.Name != "div" {
		t.Errorf("expected div, got %s", hf2.Name)
	}
}

func TestWalkPrunes(t *testing.T) {
	tree := Parse("<div><a><b>x</b></a><c></c></div>")
	var visited []string
	tree.Root.Walk(func(n *Node) bool {
		visited = append(visited, n.Name)
		return n.Name != "a" // prune under a
	})
	joined := strings.Join(visited, " ")
	if strings.Contains(joined, " b") {
		t.Errorf("walk visited pruned node b: %q", joined)
	}
	if !strings.Contains(joined, "c") {
		t.Errorf("walk missed sibling c: %q", joined)
	}
}

func TestParseEmptyAndTextOnly(t *testing.T) {
	if tree := Parse(""); tree.Root == nil || len(tree.Root.Children) != 0 {
		t.Errorf("empty doc: %+v", tree.Root)
	}
	tree := Parse("just text, no tags at all")
	if len(tree.Root.Children) != 0 {
		t.Errorf("text-only doc should have no element children")
	}
	if got := tree.Root.Text(); got != "just text, no tags at all" {
		t.Errorf("Text() = %q", got)
	}
}

// Property: parsing arbitrary strings never panics and always yields a tree
// whose event stream is balanced (every EventStart of a non-void element has
// a matching EventEnd) and whose node event ranges nest properly.
func TestParseArbitraryInputProperty(t *testing.T) {
	f := func(s string) bool {
		tree := Parse(s)
		depth := 0
		for _, ev := range tree.Events {
			switch ev.Kind {
			case EventStart:
				if !htmlparse.IsVoid(ev.Node.Name) {
					depth++
				}
			case EventEnd:
				depth--
				if depth < 0 {
					return false
				}
			}
		}
		return depth == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: for random tag soup built from a small alphabet, every node's
// event range contains exactly its subtree's events.
func TestEventRangeNestingProperty(t *testing.T) {
	f := func(seed []byte) bool {
		doc := soupFromBytes(seed)
		tree := Parse(doc)
		ok := true
		tree.Root.Walk(func(n *Node) bool {
			first, last := n.EventRange()
			if first < 0 || last > len(tree.Events) || first > last {
				ok = false
				return false
			}
			for _, c := range n.Children {
				cf, cl := c.EventRange()
				if cf < first || cl > last {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// soupFromBytes deterministically renders bytes as messy HTML: a mix of
// start-tags, end-tags (often mismatched), void tags, and text.
func soupFromBytes(seed []byte) string {
	names := []string{"div", "p", "b", "i", "td", "tr", "table", "li", "ul"}
	var b strings.Builder
	for _, c := range seed {
		switch c % 5 {
		case 0:
			b.WriteString("<" + names[int(c/5)%len(names)] + ">")
		case 1:
			b.WriteString("</" + names[int(c/5)%len(names)] + ">")
		case 2:
			b.WriteString("text")
		case 3:
			b.WriteString("<br>")
		default:
			b.WriteString(" more words ")
		}
	}
	return b.String()
}

func BenchmarkParseFigure2(b *testing.B) {
	b.SetBytes(int64(len(paperdoc.Figure2)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(paperdoc.Figure2)
	}
}
