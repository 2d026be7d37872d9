package tagtree

import (
	"testing"

	"repro/internal/htmlparse"
)

// FuzzParse: building a tag tree from arbitrary bytes must not panic, the
// event stream must balance, and re-parsing the patched document must give
// an Equal tree (the Appendix A equivalence).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><hr><b>A</b><hr></body></html>",
		"<table><tr><td>a<td>b<tr><td>c</table>",
		"</b>orphan<p>one<p>two",
		"<ul><li>x<li>y</ul>",
		"<div><b>bold<i>nested</div>",
		"text <br> only",
		"<!-- c --><p>x</p>",
		"<b><b><b></b>",
		"<A/>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tree := Parse(s)
		depth := 0
		for _, ev := range tree.Events {
			switch ev.Kind {
			case EventStart:
				// Void elements and explicit self-closing tags (<a/>)
				// are leaves: their event range is the start event alone.
				first, last := ev.Node.EventRange()
				leaf := last == first+1
				if htmlparse.IsVoid(ev.Node.Name) && !leaf {
					t.Fatalf("void <%s> has an end event", ev.Node.Name)
				}
				if !leaf {
					depth++
				}
			case EventEnd:
				depth--
				if depth < 0 {
					t.Fatal("unbalanced event stream")
				}
			}
		}
		if depth != 0 {
			t.Fatalf("event stream left %d elements open", depth)
		}
		if !Equal(tree, Parse(PatchDocument(s))) {
			t.Fatal("patched-document tree differs from direct tree")
		}
	})
}

// FuzzParseXML: same crash-freedom and balance for the XML path.
func FuzzParseXML(f *testing.F) {
	for _, s := range []string{
		"<r><a/><b>x</b></r>",
		"<A>x</a>",
		"<![CDATA[<r>]]>",
		"</orphan><r/>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tree := ParseXML(s)
		depth := 0
		for _, ev := range tree.Events {
			switch ev.Kind {
			case EventStart:
				if ev.Node.lastEvent != ev.Node.firstEvent+1 {
					depth++
				}
			case EventEnd:
				depth--
			}
		}
		if depth != 0 {
			t.Fatalf("XML event stream left %d elements open", depth)
		}
	})
}
