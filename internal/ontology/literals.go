package ontology

// LiteralUse is one rule's interest in a literal of the LiteralIndex: an
// anchor of a ScanAnchored rule, or a gate of any other.
type LiteralUse struct {
	// Rule indexes the slice Rules returns.
	Rule int32
	// Back is how far the start of interest lies before the end of the
	// literal's hit: the literal's length plus, for an anchor, its offset
	// from the match start. The start is a candidate match start for an
	// anchor and the hit's start for a gate.
	Back int32
}

// LiteralIndex is an Aho–Corasick automaton over the anchor and gate
// literals of every rule of an ontology, so one pass over a chunk's bytes
// finds all of them. It is a full DFA over byte classes: bytes that occur
// in no literal share one class, which keeps the transition table small.
type LiteralIndex struct {
	class  [256]uint8
	nclass int32
	delta  []int32 // state*nclass + class → next state
	// States are numbered so that those where some literal ends come last,
	// from firstUse on. The uses of every literal ending in such a state s,
	// including those reached by suffix links, are
	// uses[useStart[s-firstUse]:useStart[s-firstUse+1]].
	firstUse int32
	useStart []int32
	uses     []LiteralUse
}

// Next returns the state after reading b in state st. The start state is
// 0.
func (x *LiteralIndex) Next(st int32, b byte) int32 {
	return x.delta[st*x.nclass+int32(x.class[b])]
}

// Uses returns the uses of every literal that ends at the byte which led
// to state st.
func (x *LiteralIndex) Uses(st int32) []LiteralUse {
	if st < x.firstUse {
		return nil
	}
	i := st - x.firstUse
	return x.uses[x.useStart[i]:x.useStart[i+1]]
}

// newLiteralIndex builds the automaton over every rule's anchors (for
// ScanAnchored plans) and gates.
func newLiteralIndex(rules []Rule) *LiteralIndex {
	x := &LiteralIndex{}
	var lits []string
	var litUses [][]LiteralUse
	id := map[string]int{}
	add := func(lit string, u LiteralUse) {
		i, ok := id[lit]
		if !ok {
			i = len(lits)
			id[lit] = i
			lits = append(lits, lit)
			litUses = append(litUses, nil)
		}
		litUses[i] = append(litUses[i], u)
	}
	for ri, r := range rules {
		p := r.Plan
		if p.Mode == ScanAnchored {
			for _, a := range p.Anchors {
				add(a.Literal, LiteralUse{Rule: int32(ri), Back: int32(len(a.Literal) + a.Offset)})
			}
			continue
		}
		for _, g := range p.Gates {
			add(g, LiteralUse{Rule: int32(ri), Back: int32(len(g))})
		}
	}

	// Byte classes: class 0 for bytes in no literal, or one class per
	// byte value when every byte value occurs in some literal.
	var used ByteSet
	nused := 0
	for _, l := range lits {
		for i := 0; i < len(l); i++ {
			if !used.Has(l[i]) {
				used.add(l[i])
				nused++
			}
		}
	}
	x.nclass = 1
	for b := 0; b < 256; b++ {
		switch {
		case nused == 256:
			x.class[b] = uint8(b)
		case used.Has(byte(b)):
			x.class[b] = uint8(x.nclass)
			x.nclass++
		}
	}
	if nused == 256 {
		x.nclass = 256
	}

	// The trie: delta doubles as the goto function, -1 = no edge. It has
	// at most one state per literal byte, plus the start state.
	nc := x.nclass
	maxStates := 1
	for _, l := range lits {
		maxStates += len(l)
	}
	x.delta = make([]int32, maxStates*int(nc))
	for i := range x.delta {
		x.delta[i] = -1
	}
	states := int32(1)
	ends := make([][]int, maxStates) // per state: ids of literals ending there
	for i, l := range lits {
		st := int32(0)
		for j := 0; j < len(l); j++ {
			c := int32(x.class[l[j]])
			next := x.delta[st*nc+c]
			if next < 0 {
				next = states
				states++
				x.delta[st*nc+c] = next
			}
			st = next
		}
		ends[st] = append(ends[st], i)
	}
	x.delta = x.delta[:int(states)*int(nc)]

	// Breadth-first: fill missing edges from the suffix-link state, which
	// is always shallower and so already complete, and collect each
	// state's uses with its suffix link's.
	fail := make([]int32, states)
	stateUses := make([][]LiteralUse, states)
	queue := make([]int32, 0, states)
	for c := int32(0); c < nc; c++ {
		if next := x.delta[c]; next < 0 {
			x.delta[c] = 0
		} else {
			queue = append(queue, next)
		}
	}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		for _, i := range ends[st] {
			stateUses[st] = append(stateUses[st], litUses[i]...)
		}
		stateUses[st] = append(stateUses[st], stateUses[fail[st]]...)
		for c := int32(0); c < nc; c++ {
			next := x.delta[st*nc+c]
			if next < 0 {
				x.delta[st*nc+c] = x.delta[fail[st]*nc+c]
				continue
			}
			fail[next] = x.delta[fail[st]*nc+c]
			queue = append(queue, next)
		}
	}

	// Renumber: states without uses first (the start state, which has
	// none, stays 0), then those with uses.
	renum := make([]int32, states)
	var withUses []int32
	next := int32(0)
	for st := int32(0); st < states; st++ {
		if len(stateUses[st]) == 0 {
			renum[st] = next
			next++
		} else {
			withUses = append(withUses, st)
		}
	}
	x.firstUse = next
	x.useStart = []int32{0}
	for _, st := range withUses {
		renum[st] = next
		next++
		x.uses = append(x.uses, stateUses[st]...)
		x.useStart = append(x.useStart, int32(len(x.uses)))
	}
	delta := make([]int32, len(x.delta))
	for st := int32(0); st < states; st++ {
		for c := int32(0); c < nc; c++ {
			delta[renum[st]*nc+c] = renum[x.delta[st*nc+c]]
		}
	}
	x.delta = delta
	return x
}
