package ontology

import (
	"regexp"
	"regexp/syntax"
	"slices"
	"unicode"
	"unicode/utf8"
)

// ScanMode says how the recognizer finds the positions where a rule's
// matches can start.
type ScanMode int

// Scan modes.
const (
	// ScanFallback runs Pattern over whole chunks with FindAllStringIndex:
	// the planner could not prove a windowed match at candidate starts
	// equal to it. Nullable patterns, case folding onto non-ASCII runes,
	// non-ASCII character classes, U+FFFD literals, a . that can open a
	// match, ^ and $, and any other assertion that can sit at the start of
	// a match fall back.
	ScanFallback ScanMode = iota
	// ScanAnchored takes candidate starts from the hits of the plan's
	// anchor literals, each a fixed distance after the match start.
	ScanAnchored
	// ScanFirstByte takes as candidate starts every position holding a
	// byte of First.
	ScanFirstByte
)

// String returns "fallback", "anchored" or "first-byte".
func (m ScanMode) String() string {
	switch m {
	case ScanAnchored:
		return "anchored"
	case ScanFirstByte:
		return "first-byte"
	default:
		return "fallback"
	}
}

// Anchor is a literal at a fixed byte offset from the start of a match.
// Every match of a ScanAnchored rule has at least one of its plan's
// anchors in place.
type Anchor struct {
	Literal string
	Offset  int
}

// ByteSet is a set of byte values.
type ByteSet [4]uint64

// Has reports whether b is in the set.
func (s *ByteSet) Has(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }

func (s *ByteSet) add(b byte) { s[b>>6] |= 1 << (b & 63) }

func (s *ByteSet) union(o ByteSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

func (s ByteSet) and(o ByteSet) ByteSet {
	for i := range s {
		s[i] &= o[i]
	}
	return s
}

func (s ByteSet) andNot(o ByteSet) ByteSet {
	for i := range s {
		s[i] &^= o[i]
	}
	return s
}

// ScanPlan is how the recognizer looks for one rule's matches in a chunk of
// text. It is compiled once per rule from the pattern's regexp/syntax tree
// (see Rules). For every mode except ScanFallback, the recognizer verifies
// a candidate start s by running DFA from s, or, for a rule with no DFA,
// Verify over text[s:WindowEnd(text, s)]; either gives the match
// FindAllStringIndex reports at s, so advancing past each match and taking
// the next candidate reproduces FindAllStringIndex exactly
// (docs/PERFORMANCE.md gives the argument).
type ScanPlan struct {
	Mode ScanMode
	// Anchors are the anchor literals of a ScanAnchored plan.
	Anchors []Anchor
	// Gates, when non-nil, are necessary literals: every match contains
	// at least one of them, so a chunk holding none cannot match, and a
	// ScanFirstByte match lies around a gate hit. Only ScanFirstByte and
	// ScanFallback plans carry gates; an anchored plan's anchors already
	// imply its literals.
	Gates []string
	// First holds every byte a match can begin with.
	First ByteSet
	// WordBoundary is set when the pattern begins with \b. Verify omits
	// it; the recognizer checks it from the bytes either side of the
	// candidate start, which Verify cannot see.
	WordBoundary bool
	// MaxWidth is the longest match in bytes, or -1 when unbounded.
	MaxWidth int
	// Alphabet holds every byte a match can contain, so a match ends at or
	// before the first byte outside it.
	Alphabet ByteSet
	// DFA is the pattern, less the leading \b when WordBoundary is set,
	// compiled to a leftmost-first automaton; nil when compileDFA gives up.
	DFA *DFA
	// Verify is ^(?:pattern), less the leading \b when WordBoundary is
	// set; nil when DFA is set.
	Verify *regexp.Regexp
}

// WindowEnd returns the end of the verification window for a candidate
// start s: past the longest possible match, and past the first byte from s
// outside the alphabet, by one byte of right context (enough for a
// trailing \b), then out to the next rune boundary so that no rune is cut.
func (p *ScanPlan) WindowEnd(text string, s int) int {
	end := len(text)
	if p.MaxWidth >= 0 && s+p.MaxWidth+1 < end {
		end = s + p.MaxWidth + 1
	}
	for i := s; i < end; i++ {
		if !p.Alphabet.Has(text[i]) {
			end = i + 1
			break
		}
	}
	for end < len(text) && !utf8.RuneStart(text[end]) {
		end++
	}
	return end
}

// Plan limits. maxFinite bounds a literal set expanded from a finite
// sub-language (a lexicon alternation, a cross product of alternations);
// maxAnchors and maxGates bound the literals one rule adds to the
// recognizer's automaton.
const (
	maxFinite  = 64
	maxAnchors = 64
	maxGates   = 24
)

// compilePlan builds the scan plan for a compiled pattern. Any pattern the
// planner cannot prove safe gets a ScanFallback plan, possibly gated.
func compilePlan(re *regexp.Regexp) *ScanPlan {
	tree, err := syntax.Parse(re.String(), syntax.Perl)
	if err != nil {
		// Unreachable: re compiled from the same source with the same
		// flags.
		return &ScanPlan{Mode: ScanFallback}
	}
	gates, ok := necessaryLiterals(tree)
	if !ok || len(gates) > maxGates || slices.Contains(gates, " ") {
		// A lone space gates nothing: nearly every chunk of prose holds
		// one, so it would only cost a hit per space.
		gates = nil
	}
	fallback := &ScanPlan{Mode: ScanFallback, Gates: gates}

	body, wb := cutLeadingWordBoundary(tree)
	lo, hi := width(body)
	if lo == 0 || !plannable(body, true) {
		return fallback
	}
	first, ok := firstBytes(body)
	if !ok {
		return fallback
	}
	p := &ScanPlan{
		Mode:         ScanFirstByte,
		Gates:        gates,
		First:        first,
		WordBoundary: wb,
		MaxWidth:     hi,
		Alphabet:     alphabet(body),
	}
	if p.DFA = compileDFA(body); p.DFA == nil {
		if p.Verify, err = regexp.Compile(`^(?:` + body.String() + `)`); err != nil {
			return fallback
		}
	}
	if anchors, ok := anchorsOf(body); ok && len(anchors) <= maxAnchors {
		p.Mode, p.Anchors, p.Gates = ScanAnchored, anchors, nil
	}
	return p
}

// cutLeadingWordBoundary splits a leading \b off a concatenation.
func cutLeadingWordBoundary(re *syntax.Regexp) (*syntax.Regexp, bool) {
	if re.Op != syntax.OpConcat || len(re.Sub) < 2 || re.Sub[0].Op != syntax.OpWordBoundary {
		return re, false
	}
	if len(re.Sub) == 2 {
		return re.Sub[1], true
	}
	rest := *re
	rest.Sub = re.Sub[1:]
	return &rest, true
}

// plannable reports whether every construct in re keeps a windowed match at
// a candidate start equal to the whole-text match: no case folding onto
// non-ASCII runes (the parser turns [Ff] into a folded F, which stays
// plannable; (?i)k also matches the Kelvin sign, which does not), only
// ASCII character classes, no U+FFFD literal (the engine reads invalid
// UTF-8 as U+FFFD), no line or text anchors, and no word-boundary
// assertion where it could look left of the match start. atStart reports
// whether re can begin at offset 0 of a match.
func plannable(re *syntax.Regexp, atStart bool) bool {
	switch re.Op {
	case syntax.OpEmptyMatch, syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		return true
	case syntax.OpLiteral:
		for _, r := range re.Rune {
			if r == utf8.RuneError {
				return false
			}
			if re.Flags&syntax.FoldCase != 0 {
				for _, f := range foldOrbit(r) {
					if f >= utf8.RuneSelf {
						return false
					}
				}
			}
		}
		return true
	case syntax.OpCharClass:
		for _, r := range re.Rune {
			if r >= utf8.RuneSelf {
				return false
			}
		}
		return true
	case syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		return !atStart
	case syntax.OpCapture, syntax.OpStar, syntax.OpPlus, syntax.OpQuest, syntax.OpRepeat:
		return plannable(re.Sub[0], atStart)
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			if !plannable(sub, atStart) {
				return false
			}
			if lo, _ := width(sub); lo > 0 {
				atStart = false
			}
		}
		return true
	case syntax.OpAlternate:
		for _, sub := range re.Sub {
			if !plannable(sub, atStart) {
				return false
			}
		}
		return true
	default:
		// OpNoMatch, ^, $, \A, \z.
		return false
	}
}

// foldOrbit returns the runes a literal rune matches: itself, plus its
// case-fold orbit when the literal is case-folded.
func foldOrbit(r rune) []rune {
	orbit := []rune{r}
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		orbit = append(orbit, f)
	}
	return orbit
}

// literalRunes returns, per rune of a literal, the runes that position
// matches.
func literalRunes(re *syntax.Regexp) [][]rune {
	out := make([][]rune, len(re.Rune))
	for i, r := range re.Rune {
		if re.Flags&syntax.FoldCase != 0 {
			out[i] = foldOrbit(r)
		} else {
			out[i] = []rune{r}
		}
	}
	return out
}

// width returns the shortest and longest match of re in bytes; hi is -1
// when unbounded. A rune-consuming node matching a non-ASCII rune counts
// up to four bytes; invalid UTF-8 is consumed a byte at a time.
func width(re *syntax.Regexp) (lo, hi int) {
	switch re.Op {
	case syntax.OpLiteral:
		for _, r := range re.Rune {
			l, h := utf8.RuneLen(r), utf8.RuneLen(r)
			if re.Flags&syntax.FoldCase != 0 {
				for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
					l, h = min(l, utf8.RuneLen(f)), max(h, utf8.RuneLen(f))
				}
			}
			lo, hi = lo+l, hi+h
		}
		return lo, hi
	case syntax.OpCharClass:
		if len(re.Rune) > 0 && re.Rune[len(re.Rune)-1] >= utf8.RuneSelf {
			return 1, utf8.UTFMax
		}
		return 1, 1
	case syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		return 1, utf8.UTFMax
	case syntax.OpCapture:
		return width(re.Sub[0])
	case syntax.OpStar, syntax.OpPlus, syntax.OpQuest:
		l, h := width(re.Sub[0])
		if re.Op != syntax.OpPlus {
			l = 0
		}
		if re.Op != syntax.OpQuest && h != 0 {
			h = -1
		}
		return l, h
	case syntax.OpRepeat:
		l, h := width(re.Sub[0])
		switch {
		case h == 0:
		case re.Max < 0 || h < 0:
			h = -1
		default:
			h *= re.Max
		}
		return l * re.Min, h
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			l, h := width(sub)
			lo += l
			if hi >= 0 {
				if h < 0 {
					hi = -1
				} else {
					hi += h
				}
			}
		}
		return lo, hi
	case syntax.OpAlternate:
		for i, sub := range re.Sub {
			l, h := width(sub)
			if i == 0 || l < lo {
				lo = l
			}
			if hi >= 0 && (h < 0 || h > hi) {
				hi = h
			}
		}
		return lo, hi
	default:
		// Empty-width assertions, the empty match, no-match.
		return 0, 0
	}
}

// firstBytes returns every byte a non-empty match of re can begin with.
// ok is false when a match can begin with a non-ASCII class or any-char,
// whose first byte says nothing about where the engine's rune-by-rune
// search would start a match.
func firstBytes(re *syntax.Regexp) (set ByteSet, ok bool) {
	switch re.Op {
	case syntax.OpLiteral:
		for _, r := range literalRunes(re)[0] {
			var buf [utf8.UTFMax]byte
			utf8.EncodeRune(buf[:], r)
			set.add(buf[0])
		}
		return set, true
	case syntax.OpCharClass:
		for i := 0; i < len(re.Rune); i += 2 {
			if re.Rune[i+1] >= utf8.RuneSelf {
				return set, false
			}
			for c := re.Rune[i]; c <= re.Rune[i+1]; c++ {
				set.add(byte(c))
			}
		}
		return set, true
	case syntax.OpCapture, syntax.OpStar, syntax.OpPlus, syntax.OpQuest, syntax.OpRepeat:
		return firstBytes(re.Sub[0])
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			s, ok := firstBytes(sub)
			if !ok {
				return set, false
			}
			set.union(s)
			if lo, _ := width(sub); lo > 0 {
				break
			}
		}
		return set, true
	case syntax.OpAlternate:
		for _, sub := range re.Sub {
			s, ok := firstBytes(sub)
			if !ok {
				return set, false
			}
			set.union(s)
		}
		return set, true
	case syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		return set, false
	default:
		return set, true
	}
}

// alphabet returns every byte a match of re can contain.
func alphabet(re *syntax.Regexp) (set ByteSet) {
	switch re.Op {
	case syntax.OpLiteral:
		for _, orbit := range literalRunes(re) {
			for _, b := range []byte(string(orbit)) {
				set.add(b)
			}
		}
	case syntax.OpCharClass:
		for i := 0; i < len(re.Rune); i += 2 {
			for c := re.Rune[i]; c <= re.Rune[i+1] && c < utf8.RuneSelf; c++ {
				set.add(byte(c))
			}
		}
	case syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		for i := range set {
			set[i] = ^uint64(0)
		}
		if re.Op == syntax.OpAnyCharNotNL {
			set[0] &^= 1 << '\n'
		}
	default:
		for _, sub := range re.Sub {
			set.union(alphabet(sub))
		}
	}
	return set
}

// anchorsOf returns anchor literals for re: every match of re has one of
// them at its offset from the start of re's match. A finite sub-language,
// such as a lexicon alternation the parser factored into
// J(?:anuary|u(?:ne|ly)), is expanded back into whole words; otherwise a
// concatenation anchors on its fixed-offset piece whose weakest literal is
// longest, and an alternation on the union of its branches' anchors.
func anchorsOf(re *syntax.Regexp) ([]Anchor, bool) {
	if words, ok := finiteLang(re); ok {
		if hasEmpty(words) {
			return nil, false
		}
		anchors := make([]Anchor, 0, len(words))
		for _, w := range words {
			anchors = append(anchors, Anchor{Literal: w})
		}
		return anchors, true
	}
	switch re.Op {
	case syntax.OpCapture, syntax.OpPlus:
		return anchorsOf(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return anchorsOf(re.Sub[0])
		}
	case syntax.OpAlternate:
		var all []Anchor
		for _, sub := range re.Sub {
			a, ok := anchorsOf(sub)
			if !ok {
				return nil, false
			}
			all = appendAnchors(all, a...)
		}
		return all, true
	case syntax.OpConcat:
		var best []Anchor
		off := 0
		for i, sub := range re.Sub {
			var a []Anchor
			if words, n := finitePrefix(re.Sub[i:]); n > 0 {
				for _, w := range words {
					a = append(a, Anchor{Literal: w, Offset: off})
				}
			} else if sa, ok := anchorsOf(sub); ok {
				for _, x := range sa {
					a = append(a, Anchor{Literal: x.Literal, Offset: x.Offset + off})
				}
			}
			if a != nil && (best == nil || betterAnchors(a, best)) {
				best = a
			}
			lo, hi := width(sub)
			if lo != hi {
				break
			}
			off += lo
		}
		return best, best != nil
	}
	return nil, false
}

// betterAnchors prefers the set whose shortest literal is longer, then the
// smaller set.
func betterAnchors(a, b []Anchor) bool {
	ma, mb := weakest(a), weakest(b)
	if ma != mb {
		return ma > mb
	}
	return len(a) < len(b)
}

func weakest(as []Anchor) int {
	m := -1
	for _, a := range as {
		if m < 0 || len(a.Literal) < m {
			m = len(a.Literal)
		}
	}
	return m
}

// appendAnchors appends the anchors not already in dst.
func appendAnchors(dst []Anchor, as ...Anchor) []Anchor {
next:
	for _, a := range as {
		for _, d := range dst {
			if d == a {
				continue next
			}
		}
		dst = append(dst, a)
	}
	return dst
}

// finiteLang returns every string re matches when re is built only from
// case-sensitive literals, alternation, concatenation and ?, and there are
// at most maxFinite of them.
func finiteLang(re *syntax.Regexp) ([]string, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		if !byteLiteral(re) {
			return nil, false
		}
		return []string{string(re.Rune)}, true
	case syntax.OpEmptyMatch:
		return []string{""}, true
	case syntax.OpCapture:
		return finiteLang(re.Sub[0])
	case syntax.OpQuest:
		words, ok := finiteLang(re.Sub[0])
		if !ok || len(words) >= maxFinite {
			return nil, false
		}
		return appendWords(words, ""), true
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			words, ok := finiteLang(sub)
			if !ok {
				return nil, false
			}
			all = appendWords(all, words...)
			if len(all) > maxFinite {
				return nil, false
			}
		}
		return all, true
	case syntax.OpConcat:
		all := []string{""}
		for _, sub := range re.Sub {
			words, ok := finiteLang(sub)
			if !ok || len(all)*len(words) > maxFinite {
				return nil, false
			}
			all = crossWords(all, words)
		}
		return all, true
	}
	return nil, false
}

// crossWords returns every a+w, without repeats.
func crossWords(as, ws []string) []string {
	var out []string
	for _, a := range as {
		for _, w := range ws {
			out = appendWords(out, a+w)
		}
	}
	return out
}

// finitePrefix returns the words of the longest run of leading subs that
// together form a finite language of at most maxFinite words, and the
// run's length. The parser flattens concatenations, so the words of
// " (?:miles|mi\.)" span a literal and the factored alternation after it.
// An optional piece ends the run: it multiplies the words without
// lengthening the shortest.
func finitePrefix(subs []*syntax.Regexp) ([]string, int) {
	all := []string{""}
	n := 0
	for _, sub := range subs {
		words, ok := finiteLang(sub)
		if !ok || hasEmpty(words) || len(all)*len(words) > maxFinite {
			break
		}
		all = crossWords(all, words)
		n++
	}
	return all, n
}

func hasEmpty(words []string) bool {
	for _, w := range words {
		if w == "" {
			return true
		}
	}
	return false
}

// byteLiteral reports whether re's matches are exactly the UTF-8 bytes of
// its runes. A folded literal matches in any case mix, and a U+FFFD also
// matches any invalid byte.
func byteLiteral(re *syntax.Regexp) bool {
	if re.Flags&syntax.FoldCase != 0 {
		return false
	}
	for _, r := range re.Rune {
		if r == utf8.RuneError {
			return false
		}
	}
	return true
}

// appendWords appends the words not already in dst.
func appendWords(dst []string, words ...string) []string {
next:
	for _, w := range words {
		for _, d := range dst {
			if d == w {
				continue next
			}
		}
		dst = append(dst, w)
	}
	return dst
}

// necessaryLiterals computes, for a parse-tree node, a set of
// case-sensitive literals of which every match of the node must contain at
// least one. ok is false when no such (non-empty) set can be derived.
func necessaryLiterals(re *syntax.Regexp) ([]string, bool) {
	// Every match is one of a finite language's words.
	if words, ok := finiteLang(re); ok {
		if hasEmpty(words) {
			return nil, false
		}
		return words, true
	}
	switch re.Op {
	case syntax.OpLiteral:
		if !byteLiteral(re) {
			return nil, false
		}
		return []string{string(re.Rune)}, true

	case syntax.OpCapture, syntax.OpPlus:
		// The sub-expression matches at least once.
		return necessaryLiterals(re.Sub[0])

	case syntax.OpRepeat:
		if re.Min >= 1 {
			return necessaryLiterals(re.Sub[0])
		}
		return nil, false

	case syntax.OpConcat:
		// Every sub-expression matches in sequence, so any sub-expression's
		// necessary set works; pick the one whose weakest literal is longest.
		var best []string
		bestMin := 0
		for i, sub := range re.Sub {
			lits, ok := necessaryLiterals(sub)
			if words, n := finitePrefix(re.Sub[i:]); n > 0 {
				lits, ok = words, true
			}
			if !ok || len(lits) == 0 {
				continue
			}
			m := len(lits[0])
			for _, l := range lits[1:] {
				m = min(m, len(l))
			}
			if m > bestMin {
				best, bestMin = lits, m
			}
		}
		return best, best != nil

	case syntax.OpAlternate:
		// A match comes from one branch, so the union works only if every
		// branch contributes a set.
		var all []string
		for _, sub := range re.Sub {
			lits, ok := necessaryLiterals(sub)
			if !ok {
				return nil, false
			}
			all = appendWords(all, lits...)
		}
		return all, true

	default:
		// Character classes, anchors, empty-width ops, star/quest: no
		// required literal.
		return nil, false
	}
}
