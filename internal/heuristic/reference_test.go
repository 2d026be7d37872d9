package heuristic_test

import (
	"math"
	"sort"

	"repro/internal/certainty"
	"repro/internal/heuristic"
	"repro/internal/tagtree"
)

// This file is the test-only reference for the statistics pass: the
// string-keyed implementations the heuristics ran on before tags had
// atoms — a map per candidate count, per SD interval table, per RP index
// and per ranking. equivalence_test.go holds the production code to them
// exactly, scores compared bit for bit.

// refTagCounts counts each start-tag name in the subtree rooted at n,
// excluding n.
func refTagCounts(n *tagtree.Node) map[string]int {
	counts := make(map[string]int)
	n.Walk(func(m *tagtree.Node) bool {
		if m != n {
			counts[m.Name]++
		}
		return true
	})
	return counts
}

// refCandidates applies the 10% rule to refTagCounts.
func refCandidates(n *tagtree.Node, threshold float64) []tagtree.Candidate {
	counts := refTagCounts(n)
	cutoff := threshold * float64(n.SubtreeTagCount())
	out := make([]tagtree.Candidate, 0, len(counts))
	for name, c := range counts {
		if float64(c) >= cutoff {
			out = append(out, tagtree.Candidate{Name: name, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func refCandidateIndex(c *heuristic.Context) map[string]int {
	m := make(map[string]int, len(c.Candidates))
	for i, cand := range c.Candidates {
		m[cand.Name] = i
	}
	return m
}

// refIntervalLengths is SD's samples: per candidate, the plain-text lengths
// between its consecutive occurrences.
func refIntervalLengths(ctx *heuristic.Context) [][]float64 {
	idx := refCandidateIndex(ctx)
	out := make([][]float64, len(ctx.Candidates))
	lastCum := make([]int, len(ctx.Candidates))
	seen := make([]bool, len(ctx.Candidates))
	cum := 0
	events := ctx.Tree.SubtreeEvents(ctx.Subtree)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case tagtree.EventText:
			cum += tagtree.CollapsedLen(ev.Text)
		case tagtree.EventStart:
			if ev.Node == ctx.Subtree {
				continue
			}
			k, ok := idx[ev.Node.Name]
			if !ok {
				continue
			}
			if seen[k] {
				out[k] = append(out[k], float64(cum-lastCum[k]))
			}
			seen[k] = true
			lastCum[k] = cum
		}
	}
	return out
}

// refAdjacentPairs is RP's nc×nc matrix of adjacent candidate start-tags.
func refAdjacentPairs(ctx *heuristic.Context) (counts []int, any bool) {
	idx := refCandidateIndex(ctx)
	nc := len(ctx.Candidates)
	counts = make([]int, nc*nc)
	prev := -1
	events := ctx.Tree.SubtreeEvents(ctx.Subtree)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case tagtree.EventText:
			if tagtree.CollapsedLen(ev.Text) != 0 {
				prev = -1
			}
		case tagtree.EventStart:
			if ev.Node == ctx.Subtree {
				continue
			}
			k, ok := idx[ev.Node.Name]
			if !ok {
				prev = -1
				continue
			}
			if prev >= 0 {
				counts[prev*nc+k]++
				any = true
			}
			prev = k
		}
	}
	return counts, any
}

// refRankByScore is the map-keyed ranking: sort by score, ties by tag, and
// competition ranks.
func refRankByScore(scores map[string]float64, ascending bool) heuristic.Ranking {
	tags := make([]string, 0, len(scores))
	for t := range scores {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool {
		si, sj := scores[tags[i]], scores[tags[j]]
		if si != sj {
			if ascending {
				return si < sj
			}
			return si > sj
		}
		return tags[i] < tags[j]
	})
	out := make(heuristic.Ranking, len(tags))
	for i, t := range tags {
		rank := i + 1
		if i > 0 && scores[t] == scores[tags[i-1]] {
			rank = out[i-1].Rank
		}
		out[i] = heuristic.Ranked{Tag: t, Rank: rank, Score: scores[t]}
	}
	return out
}

// refRank is the reference of each of the paper's five heuristics, with
// their default settings.
func refRank(name string, ctx *heuristic.Context) (heuristic.Ranking, bool) {
	if len(ctx.Candidates) == 0 {
		return nil, false
	}
	scores := make(map[string]float64)
	switch name {
	case "HT":
		for _, c := range ctx.Candidates {
			scores[c.Name] = float64(c.Count)
		}
		return refRankByScore(scores, false), true
	case "IT":
		index := make(map[string]int)
		for i, n := range heuristic.DefaultSeparatorList {
			index[n] = i + 1
		}
		for _, c := range ctx.Candidates {
			if i, ok := index[c.Name]; ok {
				scores[c.Name] = float64(i)
			}
		}
		if len(scores) == 0 {
			return nil, false
		}
	case "SD":
		intervals := refIntervalLengths(ctx)
		for i, c := range ctx.Candidates {
			if len(intervals[i]) < 2 {
				scores[c.Name] = math.Inf(1)
			} else {
				scores[c.Name] = refStddev(intervals[i])
			}
		}
	case "RP":
		pairs, any := refAdjacentPairs(ctx)
		if !any {
			return nil, false
		}
		nc := len(ctx.Candidates)
		cutoff := 0.10 * float64(ctx.Candidates[nc-1].Count)
		for a := 0; a < nc; a++ {
			for b := 0; b < nc; b++ {
				n := pairs[a*nc+b]
				if n == 0 || float64(n) <= cutoff {
					continue
				}
				for _, k := range [2]int{a, b} {
					c := ctx.Candidates[k]
					d := math.Abs(float64(n) - float64(c.Count))
					if best, ok := scores[c.Name]; !ok || d < best {
						scores[c.Name] = d
					}
				}
			}
		}
		if len(scores) == 0 {
			return nil, false
		}
	case "OM":
		estimate, ok := heuristic.OMEstimate(ctx)
		if !ok {
			return nil, false
		}
		for _, c := range ctx.Candidates {
			scores[c.Name] = math.Abs(float64(c.Count) - estimate)
		}
	}
	return refRankByScore(scores, true), true
}

// refCompound is the map-keyed certainty combination.
func refCompound(table certainty.Table, combination certainty.Combination, rankings map[string]map[string]int, tags []string) []certainty.Score {
	out := make([]certainty.Score, 0, len(tags))
	for _, tag := range tags {
		var fs []float64
		for _, h := range combination {
			ranks, ok := rankings[h]
			if !ok {
				continue
			}
			fs = append(fs, table.Factor(h, ranks[tag]))
		}
		out = append(out, certainty.Score{Tag: tag, CF: certainty.Combine(fs...)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CF != out[j].CF {
			return out[i].CF > out[j].CF
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

func refStddev(xs []float64) float64 {
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
