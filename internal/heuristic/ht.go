package heuristic

// HT is the highest-count-tags heuristic (§4.1): candidate tags are ranked
// in descending order of their appearance count in the highest-fan-out
// subtree. When a document has many records, the separator necessarily
// appears many times, so it tends to rank high — but tags used repeatedly
// inside records (bold field labels, line breaks) outrank it just as easily,
// which is why HT is the weakest individual heuristic in the paper's
// experiments (Table 10: 45%).
type HT struct{}

// Name returns "HT".
func (HT) Name() string { return "HT" }

// Rank orders candidates by descending appearance count. HT always answers
// when at least one candidate exists.
func (HT) Rank(ctx *Context) (Ranking, bool) {
	if len(ctx.Candidates) == 0 {
		return nil, false
	}
	r := make(Ranking, len(ctx.Candidates))
	for i, c := range ctx.Candidates {
		r[i] = Ranked{Tag: c.Name, Score: float64(c.Count)}
	}
	return rank(r, false), true
}
