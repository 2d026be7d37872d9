package ontology

import (
	"regexp/syntax"
	"strings"
	"testing"
	"time"
)

// size returns the DFA's states, the dead state included, and its classes,
// end of text included.
func (d *DFA) size() (states, classes int) { return len(d.delta) / d.stride, d.stride }

func dfaOf(t *testing.T, pattern string) *DFA {
	t.Helper()
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		t.Fatal(err)
	}
	return compileDFA(re)
}

// TestCompileDFABounds: construction gives up, quickly, on patterns whose
// automaton blows up, and exactly at the states × classes bound; a
// counted repeat whose states grow only linearly still gets a DFA.
func TestCompileDFABounds(t *testing.T) {
	for _, pattern := range []string{
		// FuneralHome's value: the counted run overlaps the suffixes'
		// letters, so a state tracks every length the run could have.
		`[A-Z][A-Z'&. ]{4,40}(?:MORTUARY|CHAPEL|FUNERAL HOME)`,
		// The textbook blow-up: a state remembers the last 20 letters.
		`(?:a|b)*a(?:a|b){20}`,
	} {
		start := time.Now()
		if d := dfaOf(t, pattern); d != nil {
			states, classes := d.size()
			t.Errorf("%q: built %d states × %d classes, want to give up", pattern, states, classes)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("%q: giving up took %v", pattern, el)
		}
	}

	// One state per count: 62 live states plus the dead one.
	if d := dfaOf(t, `(?:a|b){0,60}c`); d == nil {
		t.Error("(?:a|b){0,60}c: no DFA")
	} else if states, _ := d.size(); states != 63 {
		t.Errorf("(?:a|b){0,60}c: %d states, want 63", states)
	}

	// Eleven copies of the alphabet fit under the bound; twelve pass it.
	alpha := "(?:abcdefghijklmnopqrstuvwxy)"
	if d := dfaOf(t, alpha+"{11}z"); d == nil {
		t.Errorf("%s{11}z: no DFA", alpha)
	} else if states, classes := d.size(); states*classes > maxDFACells {
		t.Errorf("%s{11}z: %d states × %d classes past %d cells", alpha, states, classes, maxDFACells)
	}
	if d := dfaOf(t, alpha+"{12}z"); d != nil {
		states, classes := d.size()
		t.Errorf("%s{12}z: built %d states × %d classes past the bound", alpha, states, classes)
	}

	// A program past maxDFAInsts gets no DFA whatever its states.
	if d := dfaOf(t, "x"+strings.Repeat("[a-y]", maxDFAInsts)); d != nil {
		t.Errorf("program past %d instructions: got a DFA", maxDFAInsts)
	}
}

// TestCompileDFARefuses: a rune instruction that tells non-ASCII runes
// apart, or an assertion other than \b and \B, leaves the rule on its
// regexp; . and a class open to every non-ASCII rune do not.
func TestCompileDFARefuses(t *testing.T) {
	cases := []struct {
		pattern string
		dfa     bool
	}{
		{`café`, false},
		{`x[^é]`, false},
		{`(?i)xk`, false}, // k folds to the Kelvin sign
		{`x$`, false},
		{`x(?m:^)y`, false},
		{`x.y`, true},
		{`x(?s:.)y`, true},
		{`x[^a]y`, true},
		{`x\b.\By`, true},
		{`(?i)xf`, true},
	}
	for _, c := range cases {
		if d := dfaOf(t, c.pattern); (d != nil) != c.dfa {
			t.Errorf("%q: DFA %v, want %v", c.pattern, d != nil, c.dfa)
		}
	}
}
