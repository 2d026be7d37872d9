package tagtree

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/htmlparse"
)

// FuzzByteVsStringParse is the differential gate for the production parser:
// for any input, ParseArenaContext (byte tokenizer, arena build) must produce
// a tree identical — shape, offsets, decoded text, attributes, event stream
// — to the string tokenizer and one-pass builder of oracle_test.go, in both
// HTML and XML modes, on a pooled arena and on a nil (one-shot) arena, and
// the text length it recorded for every event must be CollapsedLen of the
// event's text (zero for tag events). The seed set mixes handcrafted grammar
// corners with every file under internal/htmlparse/testdata.
func FuzzByteVsStringParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"plain < text > only",
		arenaTestDoc,
		"<ul><li>a<li>b</ul>",
		"<table><tr><td>1<td>2<tr><td>3</table>",
		"<SCRIPT>if (a<b && c) { s = \"</div>\" }</SCRIPT>",
		"<script>x</SCRIPT tail>",
		"<style>p { color: red }</style><p>done",
		"<textarea>unclosed raw text",
		"<!DOCTYPE html><!-- c --><?pi?><p>t</p>",
		"<!doctype junk<!-->-->",
		"<a href=\"x>y\" b='q' c=unquoted d>t</a>",
		"<a/><b /><c / d><e =f>",
		"<p>&amp; &#65; &#x41; &unknown; &AMP</p>",
		"<DIV CLASS=UPPER><Span>MiXeD</sPaN></dIv>",
		"<![CDATA[raw <&> here]]><item>x</item>",
		"<?xml version=\"1.0\"?><Feed><It3m.x:y-z_/></Feed>",
		"<x><y><z></y></x>",
		"</orphan><p>t</p></also-orphan>",
		"< notatag <1 <\x00<",
		"<p title='a&lt;b'>v</p>",
		"\xffbin\xfe<b\x80r attr\x9d=\"\xc3\x89\">t\xcc</b\x80r>",
		"<br></br><hr/><img src=x>",
		"<b><i>deep</b></i>",
	} {
		f.Add(seed)
	}
	// Every file under the htmlparse testdata tree is a seed too (fuzz
	// corpus entries are fed raw: still valid differential inputs).
	root := filepath.Join("..", "htmlparse", "testdata")
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		if data, err := os.ReadFile(path); err == nil {
			f.Add(string(data))
		}
		return nil
	})

	f.Fuzz(func(t *testing.T, doc string) {
		a := AcquireArena()
		defer a.Release()

		ref, refErr := refParseContext(context.Background(), doc, Limits{})
		refX, refXErr := refParseXMLContext(context.Background(), doc, Limits{})
		for _, arena := range []*Arena{a, nil} {
			got, gotErr := ParseArenaContext(context.Background(), doc, Limits{}, arena, nil)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("HTML error divergence (pooled %v): ref %v, arena %v", arena != nil, refErr, gotErr)
			}
			if refErr == nil {
				if d := diffTrees(ref, got); d != "" {
					t.Fatalf("HTML tree divergence (pooled %v): %s", arena != nil, d)
				}
				if d := diffTextLens(got); d != "" {
					t.Fatalf("HTML text lengths (pooled %v): %s", arena != nil, d)
				}
				if d := diffAtoms(got); d != "" {
					t.Fatalf("HTML atoms (pooled %v): %s", arena != nil, d)
				}
			}

			gotX, gotXErr := ParseXMLArenaContext(context.Background(), doc, Limits{}, arena, nil)
			if (refXErr == nil) != (gotXErr == nil) {
				t.Fatalf("XML error divergence (pooled %v): ref %v, arena %v", arena != nil, refXErr, gotXErr)
			}
			if refXErr == nil {
				if d := diffTrees(refX, gotX); d != "" {
					t.Fatalf("XML tree divergence (pooled %v): %s", arena != nil, d)
				}
				if d := diffTextLens(gotX); d != "" {
					t.Fatalf("XML text lengths (pooled %v): %s", arena != nil, d)
				}
				if d := diffAtoms(gotX); d != "" {
					t.Fatalf("XML atoms (pooled %v): %s", arena != nil, d)
				}
			}
		}
	})
}

// diffTextLens describes the first event whose recorded text length is not
// CollapsedLen of its text (zero for tag events), or returns "".
func diffTextLens(tr *Tree) string {
	lens := tr.SubtreeTextLens(tr.Root)
	if len(lens) != len(tr.Events) {
		return fmt.Sprintf("%d lengths for %d events", len(lens), len(tr.Events))
	}
	for i, ev := range tr.Events {
		want := 0
		if ev.Kind == EventText {
			want = CollapsedLen(ev.Text)
		}
		if int(lens[i]) != want {
			return fmt.Sprintf("event %d (%+v): recorded %d, want %d", i, ev, lens[i], want)
		}
	}
	return ""
}

// diffAtoms describes the first element whose atom breaks the parser's
// atom rules, or returns "": every element has an atom, a built-in atom
// is its own name's, and within one tree a name has one atom and an atom
// one name.
func diffAtoms(tr *Tree) string {
	byName := make(map[string]htmlparse.Atom)
	byAtom := make(map[htmlparse.Atom]string)
	for i, ev := range tr.Events {
		if ev.Kind != EventStart {
			continue
		}
		n := ev.Node
		switch {
		case n.Atom == 0:
			return fmt.Sprintf("event %d: <%s> has no atom", i, n.Name)
		case n.Atom < htmlparse.NumBuiltinAtoms && n.Atom.String() != n.Name:
			return fmt.Sprintf("event %d: <%s> has the built-in atom of %q", i, n.Name, n.Atom.String())
		}
		if a, ok := byName[n.Name]; ok && a != n.Atom {
			return fmt.Sprintf("event %d: <%s> has atoms %d and %d", i, n.Name, a, n.Atom)
		}
		if name, ok := byAtom[n.Atom]; ok && name != n.Name {
			return fmt.Sprintf("event %d: atom %d names both %q and %q", i, n.Atom, name, n.Name)
		}
		byName[n.Name], byAtom[n.Atom] = n.Atom, n.Name
	}
	return ""
}

// FuzzCollapsedLen pins CollapsedLen, the length the parser records for
// every text event, to the string it measures: len(CollapseSpace(s)).
func FuzzCollapsedLen(f *testing.F) {
	for _, s := range []string{
		"", " ", "  \t\n", "a", " a ", "a  b", "  a \t b\vc  ", "\fx\f",
		"\xa0nbsp\xa0", "\u2003em space", "x\r\ny",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := CollapsedLen(s), len(CollapseSpace(s)); got != want {
			t.Fatalf("CollapsedLen(%q) = %d, len(CollapseSpace) = %d", s, got, want)
		}
	})
}
