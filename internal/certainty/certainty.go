// Package certainty implements the paper's adaptation of Stanford certainty
// theory (Section 5): combining independent heuristic evidence into a
// compound certainty factor, the calibrated rank→factor tables (paper
// Table 4), calibration of such tables from ranking-distribution
// measurements (Tables 2 and 3), and enumeration of heuristic combinations
// (Table 5).
package certainty

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Combine applies the Stanford certainty-theory rule for independent
// evidence supporting the same observation:
//
//	CF(E1,E2) = CF(E1) + CF(E2) − CF(E1)·CF(E2)
//
// folded over any number of factors, which is equivalent to
// 1 − ∏(1 − CFi). Factors are probabilities in [0,1]; values outside the
// range are clamped.
func Combine(factors ...float64) float64 {
	remain := 1.0
	for _, f := range factors {
		remain = combineStep(remain, f)
	}
	return 1 - remain
}

// combineStep folds one more factor, clamped to [0,1], into the remaining
// doubt 1 − CF: the one place the rule's arithmetic is written.
func combineStep(remain, f float64) float64 {
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	return remain * (1 - f)
}

// Table maps a heuristic name to its certainty factors by rank: entry k-1
// is the certainty that the heuristic's rank-k choice is a correct record
// separator. Ranks beyond the slice carry zero certainty.
type Table map[string][]float64

// Factor returns the certainty factor the table assigns to the given
// heuristic at the given 1-based rank. Unknown heuristics and out-of-range
// ranks yield 0.
func (t Table) Factor(heuristic string, rank int) float64 {
	return factorAt(t[heuristic], rank)
}

// factorAt returns one heuristic's factor at a 1-based rank.
func factorAt(fs []float64, rank int) float64 {
	if rank < 1 || rank > len(fs) {
		return 0
	}
	return fs[rank-1]
}

// Clone returns a deep copy of the table.
func (t Table) Clone() Table {
	out := make(Table, len(t))
	for k, v := range t {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// Heuristic names used throughout the reproduction, matching the paper's
// abbreviations.
const (
	OM = "OM" // ontology matching
	RP = "RP" // repeating-tag pattern
	SD = "SD" // standard deviation
	IT = "IT" // identifiable separator tags
	HT = "HT" // highest-count tags
)

// AllHeuristics lists the five heuristic names in the paper's ORSIH order.
var AllHeuristics = []string{OM, RP, SD, IT, HT}

// PaperTable is the paper's Table 4: certainty factors obtained by averaging
// the obituary and car-advertisement training distributions (Tables 2 and 3).
var PaperTable = Table{
	OM: {0.845, 0.125, 0.020, 0.010},
	RP: {0.775, 0.125, 0.090, 0.010},
	SD: {0.655, 0.225, 0.120, 0.000},
	IT: {0.960, 0.040, 0.000, 0.000},
	HT: {0.490, 0.325, 0.165, 0.020},
}

// Distribution records, for one heuristic on one training corpus, the
// fraction of documents in which the correct separator appeared at each
// rank: entry k-1 is the fraction ranked k. This is one row of the paper's
// Table 2 or Table 3.
type Distribution struct {
	Heuristic string
	AtRank    []float64
}

// Calibrate averages ranking distributions per heuristic into a certainty
// table, exactly how the paper derives Table 4 from Tables 2 and 3. Each
// heuristic's factors are the element-wise mean of its distributions;
// distributions of different lengths are padded with zeros.
func Calibrate(dists []Distribution) Table {
	sums := make(map[string][]float64)
	counts := make(map[string]int)
	for _, d := range dists {
		s := sums[d.Heuristic]
		for len(s) < len(d.AtRank) {
			s = append(s, 0)
		}
		for i, v := range d.AtRank {
			s[i] += v
		}
		sums[d.Heuristic] = s
		counts[d.Heuristic]++
	}
	out := make(Table, len(sums))
	for h, s := range sums {
		n := float64(counts[h])
		fs := make([]float64, len(s))
		for i, v := range s {
			fs[i] = v / n
		}
		out[h] = fs
	}
	return out
}

// Combination is a subset of heuristic names, e.g. {"OM","RP","SD","IT","HT"}
// for the paper's ORSIH compound heuristic.
type Combination []string

// Abbrev renders the combination in the paper's single-letter notation
// (O, R, S, I, H), e.g. "ORSIH".
func (c Combination) Abbrev() string {
	order := map[string]int{OM: 0, RP: 1, SD: 2, IT: 3, HT: 4}
	letters := []byte("ORSIH")
	present := make([]bool, 5)
	for _, h := range c {
		if i, ok := order[h]; ok {
			present[i] = true
		}
	}
	var out []byte
	for i, p := range present {
		if p {
			out = append(out, letters[i])
		}
	}
	return string(out)
}

// Contains reports whether the combination includes the named heuristic.
func (c Combination) Contains(h string) bool {
	for _, x := range c {
		if x == h {
			return true
		}
	}
	return false
}

// Combinations enumerates every subset of the given heuristics with at least
// minSize members, in a stable order (by size, then lexicographic position).
// Combinations(AllHeuristics, 2) yields the paper's 26 compound heuristics.
func Combinations(heuristics []string, minSize int) []Combination {
	n := len(heuristics)
	var out []Combination
	for mask := 1; mask < 1<<n; mask++ {
		var c Combination
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				c = append(c, heuristics[i])
			}
		}
		if len(c) >= minSize {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

// Score is a tag with its compound certainty factor.
type Score struct {
	Tag string
	CF  float64
}

// String formats the score like the paper's worked example: "hr 99.96%".
func (s Score) String() string { return fmt.Sprintf("%s %.2f%%", s.Tag, s.CF*100) }

// Compound combines per-heuristic rankings into compound certainty factors
// for each tag. rankings maps heuristic name → (tag → 1-based rank); a
// heuristic absent from the map supplied no answer and contributes nothing.
// Tags missing from a heuristic's ranking get zero factor from it. The
// result is sorted by descending CF, ties broken by tag name. It is
// CompoundRanks over the maps.
func Compound(table Table, combination Combination, rankings map[string]map[string]int, tags []string) []Score {
	ranks := make([][]int32, len(combination))
	for i, h := range combination {
		m, ok := rankings[h]
		if !ok {
			continue
		}
		ranks[i] = make([]int32, len(tags))
		for j, tag := range tags {
			ranks[i][j] = int32(m[tag])
		}
	}
	return CompoundRanks(table, combination, ranks, tags)
}

// CompoundRanks is Compound with the rankings in index form: ranks[i]
// belongs to combination[i] and holds, aligned with tags, the 1-based rank
// that heuristic gave each tag (0 when it did not rank it); a nil ranks[i]
// means the heuristic supplied no answer. Each heuristic's factors are
// looked up in table once per call.
func CompoundRanks(table Table, combination Combination, ranks [][]int32, tags []string) []Score {
	var buf [8][]float64
	factors := buf[:0]
	for _, h := range combination {
		factors = append(factors, table[h])
	}
	out := make([]Score, len(tags))
	for j, tag := range tags {
		remain := 1.0
		for i, r := range ranks {
			if r != nil {
				remain = combineStep(remain, factorAt(factors[i], int(r[j])))
			}
		}
		out[j] = Score{Tag: tag, CF: 1 - remain}
	}
	slices.SortFunc(out, func(a, b Score) int {
		if a.CF != b.CF {
			if a.CF > b.CF {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Tag, b.Tag)
	})
	return out
}
