package heuristic

import "math"

// SD is the standard-deviation heuristic (§4.3): multiple records about the
// same kind of entity tend to be about the same size, so the candidate tag
// whose consecutive occurrences are separated by the most uniform amount of
// plain text (smallest standard deviation of the inter-occurrence character
// counts) tends to be the separator.
type SD struct{}

// Name returns "SD".
func (SD) Name() string { return "SD" }

// Rank computes, for each candidate, the standard deviation of the plain-
// text character counts between its consecutive occurrences in the highest-
// fan-out subtree, and ranks ascending. Text lengths are measured on
// whitespace-collapsed text ("number of characters" in the paper). A
// candidate with fewer than three occurrences has fewer than two intervals
// — no spread to measure — and is ranked after all measurable candidates.
// SD always answers when candidates exist. The intervals come from the
// context's statistics pass.
func (SD) Rank(ctx *Context) (Ranking, bool) {
	if len(ctx.Candidates) == 0 {
		return nil, false
	}
	st := ctx.statsOf()
	r := make(Ranking, len(ctx.Candidates))
	for i, c := range ctx.Candidates {
		score := math.Inf(1)
		if iv := st.intervals(i); len(iv) >= 2 {
			score = stddev(iv)
		}
		r[i] = Ranked{Tag: c.Name, Score: score}
	}
	return rank(r, true), true
}

// stddev returns the population standard deviation.
func stddev(xs []float64) float64 {
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	return math.Sqrt(variance / float64(len(xs)))
}
