package heuristic

import "repro/internal/tagtree"

// stats is what the one statistics pass over the highest-fan-out subtree
// counts for the heuristics, indexed by candidate (as in
// Context.Candidates). The slices live in the tree's tagtree.Scratch.
type stats struct {
	// ivOff delimits each candidate's SD samples: candidate i's plain-text
	// lengths between consecutive occurrences, in document order, are
	// iv[ivOff[i]:ivOff[i+1]].
	ivOff []int32
	iv    []float64
	// pairs is RP's nc×nc adjacency matrix: [a*nc+b] counts candidate a
	// immediately followed by candidate b. anyPair reports a nonzero entry.
	pairs   []int32
	anyPair bool
}

// intervals returns candidate i's SD samples.
func (s *stats) intervals(i int) []float64 { return s.iv[s.ivOff[i]:s.ivOff[i+1]] }

// brokenBit marks, in the pass's per-start-tag sequence, a start-tag that
// non-blank plain text precedes since the previous start-tag.
const brokenBit = 1

// statsOf returns the context's statistics, filling them on first use: a
// context assembled by hand has none until a heuristic asks, and then
// indexes its own Candidates.
func (c *Context) statsOf() *stats {
	c.statsOnce.Do(func() { c.fillStats(0, false) })
	return &c.stats
}

// fillStats is the one statistics pass. A single walk over the subtree's
// events tallies the start-tags by atom and records, per start-tag in
// document order, its tag, whether non-blank text separates it from the
// previous start-tag, and the plain-text length since the previous
// occurrence of the same tag — a running text total minus the total at
// that occurrence, so one counter serves every tag. With pick set the
// candidates are then chosen from the tally (Section 3's rule at
// threshold) into c.Candidates; otherwise c.Candidates are indexed by name.
// A last linear pass over the per-start-tag record groups the candidates'
// intervals for SD and counts their adjacent pairs for RP.
//
// Intervening end-tags and whitespace do not break adjacency (the paper's
// own example pairs, <hr><b> and <br><hr> in Figure 2, span newlines and a
// </b> respectively); a non-candidate start-tag does.
func (c *Context) fillStats(threshold float64, pick bool) {
	sc := c.Tree.Scratch()
	t := &sc.Tally
	t.Reset()
	sub := c.Subtree
	events := c.Tree.SubtreeEvents(sub)
	n := sub.SubtreeTagCount()
	buf := sc.Int32s(3 * n)
	seq := buf[:n:n]          // per start-tag: tag index<<1 | brokenBit
	gap := buf[n : 2*n : 2*n] // per start-tag: text since the tag's last occurrence, -1 for the first
	last := buf[2*n:]         // per tag: running text total at its last occurrence
	cum, s, broken := int32(0), 0, int32(0)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case tagtree.EventText:
			if l := collapsedTextLen(c, events, i); l != 0 {
				cum += int32(l)
				broken = brokenBit
			}
		case tagtree.EventStart:
			// The subtree's own start event, when it has one: the
			// synthetic root's window has none.
			if ev.Node == sub {
				continue
			}
			k := t.Add(ev.Node)
			gap[s] = -1
			if t.Counts[k] > 1 {
				gap[s] = cum - last[k]
			}
			last[k] = cum
			seq[s] = int32(k)<<1 | broken
			s, broken = s+1, 0
		}
	}

	nt := len(t.Names)
	candOf := sc.Int32s(nt)
	if pick {
		c.Candidates = t.Candidates(n, threshold, candOf)
	} else {
		for k := range candOf {
			candOf[k] = -1
		}
		for i, cand := range c.Candidates {
			if k := t.Index(cand.Name); k >= 0 {
				candOf[k] = int32(i)
			}
		}
	}

	nc := len(c.Candidates)
	buf = sc.Int32s(nc + 1 + nc*nc + nc)
	st := stats{ivOff: buf[: nc+1 : nc+1], pairs: buf[nc+1 : nc+1+nc*nc : nc+1+nc*nc]}
	fill := buf[nc+1+nc*nc:] // each candidate's next slot in iv
	for j := 0; j < s; j++ {
		if ci := candOf[seq[j]>>1]; ci >= 0 && gap[j] >= 0 {
			st.ivOff[ci+1]++
		}
	}
	for i := 0; i < nc; i++ {
		st.ivOff[i+1] += st.ivOff[i]
	}
	st.iv = sc.Float64s(int(st.ivOff[nc]))
	copy(fill, st.ivOff)
	prev := int32(-1) // last candidate start-tag not yet separated
	for j := 0; j < s; j++ {
		ci := candOf[seq[j]>>1]
		if seq[j]&brokenBit != 0 || ci < 0 {
			prev = -1
		}
		if ci < 0 {
			continue
		}
		if gap[j] >= 0 {
			st.iv[fill[ci]] = float64(gap[j])
			fill[ci]++
		}
		if prev >= 0 {
			st.pairs[prev*int32(nc)+ci]++
			st.anyPair = true
		}
		prev = ci
	}
	c.stats = st
}
