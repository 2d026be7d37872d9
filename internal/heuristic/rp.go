package heuristic

import "math"

// RP is the repeating-tag-pattern heuristic (§4.4): record boundaries often
// show consistent patterns of two or more adjacent tags (an <hr> immediately
// followed by a <b>, a <br> immediately before an <hr>). For each ordered
// pair of candidate tags <a><b> occurring with no intervening plain text, if
// <a> is the separator then the pair count should be close to the count of
// <a> alone — so tags are scored by the smallest absolute difference between
// any of their pair counts and their own count.
type RP struct {
	// PairFloor is the fraction of the lowest-count candidate's count below
	// which a pair is ignored; 0 means the paper's default of 10%.
	PairFloor float64
}

// Name returns "RP".
func (RP) Name() string { return "RP" }

// Rank reads the adjacent candidate-tag pair counts of the context's
// statistics pass (ordered pairs of candidate start-tags with no
// non-whitespace plain text between them), keeps pairs whose count exceeds
// the floor (10% of the lowest-count candidate), scores each tag of each
// kept pair by |count(pair) − count(tag)| keeping the best (lowest) score
// per tag, and ranks ascending.
// ok is false when no pair survives — the paper notes the list may be empty,
// in which case RP "simply does not supply an answer".
func (h RP) Rank(ctx *Context) (Ranking, bool) {
	nc := len(ctx.Candidates)
	if nc == 0 {
		return nil, false
	}
	floor := h.PairFloor
	if floor == 0 {
		floor = 0.10
	}

	st := ctx.statsOf()
	if !st.anyPair {
		return nil, false
	}

	lowest := ctx.Candidates[nc-1].Count // candidates sorted by count desc
	cutoff := floor * float64(lowest)

	// Each candidate's best score so far; Rank 1 marks a scored entry until
	// rank assigns the real ranks.
	r := make(Ranking, nc)
	for a := 0; a < nc; a++ {
		for b := 0; b < nc; b++ {
			n := st.pairs[a*nc+b]
			if n == 0 || float64(n) <= cutoff {
				continue
			}
			for _, k := range [2]int{a, b} {
				c := ctx.Candidates[k]
				d := math.Abs(float64(n) - float64(c.Count))
				if r[k].Rank == 0 || d < r[k].Score {
					r[k] = Ranked{Tag: c.Name, Rank: 1, Score: d}
				}
			}
		}
	}
	scored := r[:0]
	for _, e := range r {
		if e.Rank != 0 {
			scored = append(scored, e)
		}
	}
	if len(scored) == 0 {
		return nil, false
	}
	return rank(scored, true), true
}
