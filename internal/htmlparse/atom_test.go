package htmlparse

import "testing"

// The tag rules as the string switches the rule table replaced wrote them:
// the reference TestTagRulesMatchSwitches holds the table to.
func refIsVoid(name string) bool {
	switch name {
	case "area", "base", "basefont", "bgsound", "br", "col", "embed",
		"frame", "hr", "img", "input", "isindex", "keygen", "link",
		"meta", "param", "source", "spacer", "track", "wbr":
		return true
	}
	return false
}

func refIsRawText(name string) bool {
	switch name {
	case "script", "style", "textarea", "title", "xmp", "plaintext":
		return true
	}
	return false
}

func refImpliedClose(arriving, open string) bool {
	switch arriving {
	case "li", "p", "option", "colgroup":
		return open == arriving
	case "dt", "dd":
		return open == "dt" || open == "dd"
	case "td", "th":
		return open == "td" || open == "th"
	case "tr", "thead":
		return open == "td" || open == "th" || open == "tr"
	case "tbody":
		return open == "td" || open == "th" || open == "tr" || open == "thead"
	case "tfoot":
		return open == "td" || open == "th" || open == "tr" || open == "tbody"
	}
	return false
}

func TestTagRulesMatchSwitches(t *testing.T) {
	names := append([]string{"", "TD", "Hr", "x-item", "table", "tablex"}, builtinNames[1:]...)
	for _, a := range names {
		if got, want := IsVoid(a), refIsVoid(a); got != want {
			t.Errorf("IsVoid(%q) = %v, want %v", a, got, want)
		}
		if got, want := IsRawText(a), refIsRawText(a); got != want {
			t.Errorf("IsRawText(%q) = %v, want %v", a, got, want)
		}
		for _, o := range names {
			if got, want := ImpliedClose(Lookup(a), Lookup(o)), refImpliedClose(a, o); got != want {
				t.Errorf("ImpliedClose(%q, %q) = %v, want %v", a, o, got, want)
			}
		}
	}
}

func TestAtomLookup(t *testing.T) {
	for a := Atom(1); a < NumBuiltinAtoms; a++ {
		name := a.String()
		if Lookup(name) != a || LookupFold(name) != a {
			t.Errorf("%q: Lookup %d, LookupFold %d, want %d", name, Lookup(name), LookupFold(name), a)
		}
	}
	if LookupFold("TBody") != Lookup("tbody") || Lookup("TBody") != 0 {
		t.Error("case folding: LookupFold must fold, Lookup must not")
	}
	var tab AtomTable
	x, y := tab.Intern("x-item"), tab.Intern("X-Item")
	if x != NumBuiltinAtoms || y != NumBuiltinAtoms+1 || tab.Intern("x-item") != x {
		t.Errorf("Intern numbered x-item %d and X-Item %d, want %d and %d", x, y, NumBuiltinAtoms, NumBuiltinAtoms+1)
	}
	if tab.Find("td") != Lookup("td") || tab.Name(y) != "X-Item" || tab.Find("nope") != 0 {
		t.Error("Find/Name disagree with Intern")
	}
	tab.Reset()
	if tab.Find("x-item") != 0 || tab.Intern("y") != NumBuiltinAtoms {
		t.Error("Reset kept names outside the built-in table")
	}
}

// TestTokenAtoms checks the atoms the tokenizer stamps: built-in names get
// their table atom (case folded in HTML, exact in XML), other names a
// per-document atom, and an end-tag naming nothing opened so far none.
func TestTokenAtoms(t *testing.T) {
	a := NewArena()
	toks := a.TokenizeHTML(`<TD><x-Item></X-ITEM></y>`)
	if toks[0].Atom != Lookup("td") || toks[0].Name != "td" {
		t.Errorf("<TD>: %q atom %d", toks[0].Name, toks[0].Atom)
	}
	if toks[1].Atom != NumBuiltinAtoms || toks[2].Atom != toks[1].Atom || toks[3].Atom != 0 {
		t.Errorf("atoms %d %d %d, want %d %d 0", toks[1].Atom, toks[2].Atom, toks[3].Atom, NumBuiltinAtoms, NumBuiltinAtoms)
	}
	toks = a.TokenizeXML(`<td><TD></TD>`)
	if toks[0].Atom != Lookup("td") || toks[1].Atom != NumBuiltinAtoms || toks[2].Atom != toks[1].Atom {
		t.Errorf("XML atoms %d %d %d", toks[0].Atom, toks[1].Atom, toks[2].Atom)
	}
}
