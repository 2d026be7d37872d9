package ontology

import (
	"encoding/binary"
	"math/bits"
	"regexp/syntax"
	"slices"
	"unicode"
	"unicode/utf8"
)

// DFA is a rule's verifier compiled to a deterministic automaton. Run from a
// candidate start, it reads the chunk rune by rune until no thread is left
// and reports the end of the leftmost-first match there: the match the
// regexp engine reports, with no regexp call, no window and no allocation.
//
// Runes fall into classes. ASCII bytes share a class when every rune
// instruction of the program treats them alike and they agree on being
// word characters. Every non-ASCII rune, and every invalid byte (which the
// regexp engine reads as U+FFFD), falls in one class, which may hold ASCII
// bytes too. End of text is a class of its own, read once as a final step.
type DFA struct {
	class  [256]uint8 // byte → class; bytes from 0x80 up map to the non-ASCII class
	stride int        // classes, end of text included
	eot    int        // the end-of-text class
	// delta[st*stride+c] is next<<1 | m: the state after reading a rune of
	// class c in state st, and m = 1 when a match ends just before that
	// rune. State 0 is dead: it has no threads and leads only to itself.
	// End of text leads to it from every state.
	delta []uint16
}

// dfaStart is the state at a candidate start.
const dfaStart = 1

// DFA bounds. Construction gives up past maxDFACells states × classes, or
// on a program of more than maxDFAInsts instructions, and the rule keeps
// its regexp verifier. Building a state costs up to a pass over the
// program per class, so together they bound the work at set-up, which an
// inline DSL ontology makes a request pay. The cell bound also keeps
// next<<1 within delta's uint16.
const (
	maxDFACells = 1 << 13
	maxDFAInsts = 512
)

// Match returns the end of the leftmost-first match starting at s, or -1
// when none starts there.
func (d *DFA) Match(text string, s int) int {
	end := -1
	st := dfaStart
	for i := s; ; {
		c := d.eot
		if i < len(text) {
			c = int(d.class[text[i]])
		}
		t := d.delta[st*d.stride+c]
		if t&1 != 0 {
			end = i
		}
		if st = int(t >> 1); st == 0 {
			return end
		}
		// i < len(text) here: end of text leads to the dead state.
		if text[i] < utf8.RuneSelf {
			i++
		} else {
			_, n := utf8.DecodeRuneInString(text[i:])
			i += n
		}
	}
}

// The symbols the construction partitions into classes, held in ByteSets:
// the ASCII bytes, and nonASCII standing for every other rune.
const (
	nonASCII = utf8.RuneSelf
	nsymbols = utf8.RuneSelf + 1
)

// allSymbols holds every symbol.
var allSymbols = ByteSet{^uint64(0), ^uint64(0), 1}

// compileDFA builds the DFA of re's leftmost-first matches anchored at the
// start, from the simplified program the regexp package compiles for it.
// It returns nil when a rune instruction tells non-ASCII runes apart, when
// an assertion other than \b or \B appears, or past the DFA bounds.
//
// re must not read left of its start: compilePlan cuts a leading \b off,
// and plannable keeps every other assertion away from offset 0. The start
// state takes the rune before the start for a non-word character, as the
// anchored regexp on a window beginning at the start does.
func compileDFA(re *syntax.Regexp) *DFA {
	prog, err := syntax.Compile(re.Simplify())
	if err != nil || len(prog.Inst) > maxDFAInsts {
		return nil
	}
	b := &dfaBuilder{prog: prog}
	match := make([]ByteSet, len(prog.Inst))
	var sets []ByteSet
	for pc := range prog.Inst {
		inst := &prog.Inst[pc]
		switch inst.Op {
		case syntax.InstAlt, syntax.InstCapture, syntax.InstNop, syntax.InstFail, syntax.InstMatch:
		case syntax.InstEmptyWidth:
			switch syntax.EmptyOp(inst.Arg) {
			case syntax.EmptyWordBoundary, syntax.EmptyNoWordBoundary:
				b.assertions = true
			default:
				return nil
			}
		case syntax.InstRune, syntax.InstRune1, syntax.InstRuneAny, syntax.InstRuneAnyNotNL:
			set, ok := runeSymbols(inst)
			if !ok {
				return nil
			}
			match[pc] = set
			if !slices.Contains(sets, set) {
				sets = append(sets, set)
			}
		default:
			return nil
		}
	}
	b.classify(match, sets)
	return b.build()
}

// runeSymbols returns the symbols a rune instruction matches. ok is false
// when it matches some non-ASCII runes but not all.
func runeSymbols(inst *syntax.Inst) (set ByteSet, ok bool) {
	switch inst.Op {
	case syntax.InstRuneAny:
		return allSymbols, true
	case syntax.InstRuneAnyNotNL:
		return allSymbols.andNot(ByteSet{1 << '\n'}), true
	}
	rs := inst.Rune
	if len(rs) == 1 {
		// A literal rune, case-folded when the instruction says so.
		orbit := rs
		if syntax.Flags(inst.Arg)&syntax.FoldCase != 0 {
			orbit = foldOrbit(rs[0])
		}
		for _, r := range orbit {
			if r >= utf8.RuneSelf {
				return set, false
			}
			set.add(byte(r))
		}
		return set, true
	}
	// Sorted ranges: a range reaching past ASCII must be the last, and run
	// from at most 0x80 to the last rune.
	for i := 0; i < len(rs); i += 2 {
		for c := rs[i]; c <= rs[i+1] && c < utf8.RuneSelf; c++ {
			set.add(byte(c))
		}
		if rs[i+1] >= utf8.RuneSelf {
			if i+2 < len(rs) || rs[i] > utf8.RuneSelf || rs[i+1] != unicode.MaxRune {
				return set, false
			}
			set.add(nonASCII)
		}
	}
	return set, true
}

// dfaBuilder holds the construction's state.
type dfaBuilder struct {
	prog       *syntax.Prog
	assertions bool // the program holds \b or \B
	d          *DFA

	// Per class, whether its runes are word characters; per rune
	// instruction, the classes it matches, as a set of class numbers.
	word    []bool
	classes []ByteSet

	// Per state: the instructions its threads resume at, in priority
	// order, before empty transitions are followed; and whether the rune
	// before it was a word character. ids maps a state's key to it.
	threads   [][]uint32
	afterWord []bool
	ids       map[string]int
	key       []byte

	// Scratch: seen[pc] is the stamp of the last walk to reach pc; next[c]
	// collects the instructions the threads move to on class c.
	seen      []uint32
	stamp     uint32
	stack     []uint32
	closure   []uint32
	next      [][]uint32
	threadBuf []uint32
}

// classify partitions the symbols into classes that \b and every rune
// instruction treat alike; match holds the symbols each rune instruction
// matches, and sets the distinct ones.
func (b *dfaBuilder) classify(match, sets []ByteSet) {
	var words ByteSet
	for c := 0; c < utf8.RuneSelf; c++ {
		if syntax.IsWordChar(rune(c)) {
			words.add(byte(c))
		}
	}
	blocks := []ByteSet{words, allSymbols.andNot(words)}
	for _, s := range sets {
		for i, n := 0, len(blocks); i < n; i++ {
			in, out := blocks[i].and(s), blocks[i].andNot(s)
			if in != (ByteSet{}) && out != (ByteSet{}) {
				blocks[i] = in
				blocks = append(blocks, out)
			}
		}
	}
	b.d = &DFA{stride: len(blocks) + 1, eot: len(blocks)}
	b.classes = make([]ByteSet, len(match))
	for c, blk := range blocks {
		for x := 0; x < nsymbols; x++ {
			if !blk.Has(byte(x)) {
				continue
			}
			if len(b.word) == c {
				// The first symbol of the class stands for it.
				b.word = append(b.word, words.Has(byte(x)))
				for pc := range match {
					if match[pc].Has(byte(x)) {
						b.classes[pc].add(byte(c))
					}
				}
			}
			if x < utf8.RuneSelf {
				b.d.class[x] = uint8(c)
				continue
			}
			for y := utf8.RuneSelf; y < 256; y++ {
				b.d.class[y] = uint8(c)
			}
		}
	}
}

// build explores the states breadth first from the start state and fills
// in every transition. It returns nil past maxDFACells.
//
// A state's transitions come from its closure before the next rune: a
// thread that reaches Match there ends a match and cuts every thread
// after it, since those could only end matches the leftmost-first engine
// ranks lower; so the last match end a run sees is the one it reports.
// Every thread before the Match moves on, on each class its instruction
// matches, to the instruction after it.
func (b *dfaBuilder) build() *DFA {
	d := b.d
	b.ids = map[string]int{}
	b.seen = make([]uint32, len(b.prog.Inst))
	b.next = make([][]uint32, d.eot)
	b.threads, b.afterWord = [][]uint32{nil}, []bool{false} // the dead state
	b.state([]uint32{uint32(b.prog.Start)}, false)
	d.delta = make([]uint16, d.stride)
	for st := 1; st < len(b.threads); st++ {
		if len(b.threads)*d.stride > maxDFACells {
			return nil
		}
		d.delta = append(d.delta, make([]uint16, d.stride)...)
		row := d.delta[st*d.stride:]
		// Without \b or \B the closure is the same before every class;
		// with them, classes of word characters get their own.
		for _, word := range [2]bool{false, true} {
			if word && !b.assertions {
				break
			}
			for c := range b.next {
				b.next[c] = b.next[c][:0]
			}
			var m uint16
			b.closure = b.follow(b.closure[:0], b.threads[st], b.afterWord[st], word)
			for _, pc := range b.closure {
				inst := &b.prog.Inst[pc]
				if inst.Op == syntax.InstMatch {
					m = 1
					break
				}
				for k, w := range b.classes[pc] {
					for ; w != 0; w &= w - 1 {
						c := k*64 + bits.TrailingZeros64(w)
						b.next[c] = append(b.next[c], inst.Out)
					}
				}
			}
			for c, next := range b.next {
				if !b.assertions || b.word[c] == word {
					row[c] = uint16(b.state(next, b.word[c]))<<1 | m
				}
			}
			if !word {
				row[d.eot] = m
			}
		}
	}
	if len(b.threads)*d.stride > maxDFACells {
		return nil
	}
	return d
}

// state returns the id of the state whose threads resume at pcs, repeats
// dropped, adding it when new. Every state without threads is the dead
// state.
func (b *dfaBuilder) state(pcs []uint32, afterWord bool) int {
	if len(pcs) == 0 {
		return 0
	}
	b.key = b.key[:0]
	if afterWord {
		b.key = append(b.key, 1)
	} else {
		b.key = append(b.key, 0)
	}
	b.stamp++
	b.threadBuf = b.threadBuf[:0]
	for _, pc := range pcs {
		if b.seen[pc] != b.stamp {
			b.seen[pc] = b.stamp
			b.threadBuf = append(b.threadBuf, pc)
			b.key = binary.AppendUvarint(b.key, uint64(pc))
		}
	}
	if id, ok := b.ids[string(b.key)]; ok {
		return id
	}
	id := len(b.threads)
	b.ids[string(b.key)] = id
	b.threads = append(b.threads, slices.Clone(b.threadBuf))
	b.afterWord = append(b.afterWord, afterWord)
	return id
}

// follow appends to dst the rune and match instructions reachable from
// threads by empty transitions, in priority order, each once. before and
// after say whether the runes either side of the position are word
// characters, which decides \b and \B.
func (b *dfaBuilder) follow(dst, threads []uint32, before, after bool) []uint32 {
	b.stamp++
	for _, t := range threads {
		b.stack = append(b.stack[:0], t)
		for len(b.stack) > 0 {
			pc := b.stack[len(b.stack)-1]
			b.stack = b.stack[:len(b.stack)-1]
			if b.seen[pc] == b.stamp {
				continue
			}
			b.seen[pc] = b.stamp
			inst := &b.prog.Inst[pc]
			switch inst.Op {
			case syntax.InstAlt:
				// Out is preferred: it goes on top.
				b.stack = append(b.stack, inst.Arg, inst.Out)
			case syntax.InstCapture, syntax.InstNop:
				b.stack = append(b.stack, inst.Out)
			case syntax.InstEmptyWidth:
				if (before != after) == (syntax.EmptyOp(inst.Arg) == syntax.EmptyWordBoundary) {
					b.stack = append(b.stack, inst.Out)
				}
			case syntax.InstFail:
			default:
				dst = append(dst, pc)
			}
		}
	}
	return dst
}
