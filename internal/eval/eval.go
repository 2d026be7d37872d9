// Package eval is the experiment harness: it runs the individual and
// compound heuristics over corpora with ground truth and computes every
// statistic the paper reports — ranking distributions (Tables 2, 3),
// calibrated certainty factors (Table 4), combination success rates
// (Table 5), per-site test rankings (Tables 6–9), and overall success rates
// (Table 10).
package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/certainty"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/heuristic"
)

// MaxRank is the deepest rank the paper's tables track; a correct separator
// ranked deeper (or absent from a heuristic's answer) is recorded at
// MaxRank+1.
const MaxRank = 4

// DocResult is the evaluated outcome for one document.
type DocResult struct {
	Doc *corpus.Document
	// HeuristicRank maps heuristic name → best rank of any correct
	// separator (MaxRank+1 when unranked); heuristics that declined to
	// answer are absent.
	HeuristicRank map[string]int
	// Rankings holds the raw per-heuristic rankings.
	Rankings map[string]heuristic.Ranking
	// Compound holds the full compound result.
	Compound *core.Result
	// CompoundRank is the best rank of a correct separator in the compound
	// scores (by distinct CF values).
	CompoundRank int
	// Success is the paper's sc(D) = Y/X: the fraction of the top-scored
	// tags that are correct separators.
	Success float64
}

// Evaluate runs discovery on one document and scores every heuristic and
// the compound against the document's ground truth.
func Evaluate(doc *corpus.Document, opts core.Options) (*DocResult, error) {
	if opts.Ontology == nil {
		opts.Ontology = doc.Site.Domain.Ontology()
	}
	res, err := core.Discover(doc.HTML, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: %s #%d: %w", doc.Site.Name, doc.Index, err)
	}
	dr := &DocResult{
		Doc:           doc,
		HeuristicRank: make(map[string]int),
		Rankings:      res.Rankings,
		Compound:      res,
	}
	for name, ranking := range res.Rankings {
		dr.HeuristicRank[name] = bestCorrectRank(ranking, doc)
	}
	dr.CompoundRank = compoundRank(res, doc)
	dr.Success = successScore(res, doc)
	return dr, nil
}

// bestCorrectRank returns the best rank any correct separator achieved in
// the ranking, or MaxRank+1 if none is ranked.
func bestCorrectRank(r heuristic.Ranking, doc *corpus.Document) int {
	best := MaxRank + 1
	for _, t := range doc.Truth {
		if k := r.RankOf(t); k > 0 && k < best {
			best = k
		}
	}
	return best
}

// compoundRank converts compound CF scores to competition ranks over
// distinct CF values and returns the best rank of a correct separator.
func compoundRank(res *core.Result, doc *corpus.Document) int {
	rank, prevCF := 0, -1.0
	best := MaxRank + 1
	for i, s := range res.Scores {
		if s.CF != prevCF {
			rank = i + 1
			prevCF = s.CF
		}
		if doc.IsCorrect(s.Tag) && rank < best {
			best = rank
		}
	}
	return best
}

// successScore is the paper's sc(D): with X tags sharing the highest
// compound CF and Y of them correct, sc(D) = Y/X.
func successScore(res *core.Result, doc *corpus.Document) float64 {
	if len(res.TopTags) == 0 {
		return 0
	}
	y := 0
	for _, t := range res.TopTags {
		if doc.IsCorrect(t) {
			y++
		}
	}
	return float64(y) / float64(len(res.TopTags))
}

// EvaluateAll evaluates every document, failing fast on generator errors.
func EvaluateAll(docs []*corpus.Document, opts core.Options) ([]*DocResult, error) {
	out := make([]*DocResult, 0, len(docs))
	for _, d := range docs {
		dr, err := Evaluate(d, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, dr)
	}
	return out, nil
}

// EvaluateAllParallel is EvaluateAll with documents evaluated concurrently
// across workers goroutines (workers ≤ 0 selects GOMAXPROCS). Results keep
// document order, and the error returned is the first in document order.
// Each document's evaluation is independent, so this is how a production
// deployment would process a crawl.
func EvaluateAllParallel(docs []*corpus.Document, opts core.Options, workers int) ([]*DocResult, error) {
	out := make([]*DocResult, len(docs))
	errs := make([]error, len(docs))
	forEachIndex(len(docs), QualityOptions{Workers: workers}.workers(len(docs)), func(i int) {
		out[i], errs[i] = Evaluate(docs[i], opts)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RankingDistribution computes, per heuristic, the fraction of documents in
// which a correct separator was ranked 1st..MaxRank (a Table 2/3 analogue).
// A document where the heuristic declined is counted at no rank (the paper's
// training documents never hit this; synthetic ones may rarely).
func RankingDistribution(results []*DocResult) []certainty.Distribution {
	counts := map[string][]float64{}
	totals := map[string]int{}
	for _, dr := range results {
		for h, rank := range dr.HeuristicRank {
			if counts[h] == nil {
				counts[h] = make([]float64, MaxRank)
			}
			totals[h]++
			if rank >= 1 && rank <= MaxRank {
				counts[h][rank-1]++
			}
		}
	}
	var out []certainty.Distribution
	for _, h := range certainty.AllHeuristics {
		c, ok := counts[h]
		if !ok {
			continue
		}
		at := make([]float64, MaxRank)
		for i := range c {
			at[i] = c[i] / float64(totals[h])
		}
		out = append(out, certainty.Distribution{Heuristic: h, AtRank: at})
	}
	return out
}

// SuccessRate averages sc(D) over the results for one heuristic combination
// (the paper's Table 5 statistic).
func SuccessRate(results []*DocResult) float64 {
	if len(results) == 0 {
		return 0
	}
	sum := 0.0
	for _, dr := range results {
		sum += dr.Success
	}
	return sum / float64(len(results))
}

// IndividualSuccessRates computes, per heuristic, the fraction of documents
// whose correct separator that heuristic ranked first (Table 10's individual
// rows), plus the compound's average sc(D) under the key "ORSIH".
func IndividualSuccessRates(results []*DocResult) map[string]float64 {
	firsts := map[string]int{}
	for _, dr := range results {
		for h, rank := range dr.HeuristicRank {
			if rank == 1 {
				firsts[h]++
			}
		}
	}
	out := make(map[string]float64, len(firsts)+1)
	for _, h := range certainty.AllHeuristics {
		out[h] = float64(firsts[h]) / float64(len(results))
	}
	out["ORSIH"] = SuccessRate(results)
	return out
}

// CombinationResult is one row of the Table 5 sweep.
type CombinationResult struct {
	Combination certainty.Combination
	SuccessRate float64
}

// CombinationSweep evaluates every ≥2-heuristic combination over the
// documents using the given certainty table, re-scoring the cached
// individual rankings rather than re-running discovery — the sweep is how
// the paper chose ORSIH.
func CombinationSweep(results []*DocResult, table certainty.Table) []CombinationResult {
	combos := certainty.Combinations(certainty.AllHeuristics, 2)
	out := make([]CombinationResult, 0, len(combos))
	for _, combo := range combos {
		sum := 0.0
		for _, dr := range results {
			sum += rescoreSuccess(dr, combo, table)
		}
		out = append(out, CombinationResult{
			Combination: combo,
			SuccessRate: sum / float64(len(results)),
		})
	}
	return out
}

// rescoreSuccess recomputes sc(D) for one document under a different
// heuristic combination, reusing the stored rankings.
func rescoreSuccess(dr *DocResult, combo certainty.Combination, table certainty.Table) float64 {
	rankMaps := make(map[string]map[string]int, len(combo))
	for _, h := range combo {
		if r, ok := dr.Rankings[h]; ok {
			rankMaps[h] = r.ToMap()
		}
	}
	tags := make([]string, len(dr.Compound.Candidates))
	for i, c := range dr.Compound.Candidates {
		tags[i] = c.Name
	}
	scores := certainty.Compound(table, combo, rankMaps, tags)
	if len(scores) == 0 {
		return 0
	}
	top := scores[0].CF
	x, y := 0, 0
	for _, s := range scores {
		if s.CF != top {
			break
		}
		x++
		if dr.Doc.IsCorrect(s.Tag) {
			y++
		}
	}
	return float64(y) / float64(x)
}

// TestRow is one row of a Tables 6–9 analogue: per-site ranks for every
// heuristic plus the compound (the paper's "A" column).
type TestRow struct {
	Site  string
	URL   string
	Ranks map[string]int // heuristic name → rank; 0 = declined
	A     int            // compound rank
}

// TestSetTable evaluates one test domain's sites into table rows.
func TestSetTable(d corpus.Domain) ([]TestRow, error) {
	var rows []TestRow
	for _, s := range corpus.TestSites(d) {
		doc := s.Generate(0)
		dr, err := Evaluate(doc, core.Options{})
		if err != nil {
			return nil, err
		}
		row := TestRow{Site: s.Name, URL: s.URL, Ranks: map[string]int{}, A: dr.CompoundRank}
		for _, h := range certainty.AllHeuristics {
			row.Ranks[h] = dr.HeuristicRank[h] // zero when declined
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatDistributions renders Table 2/3-style output.
func FormatDistributions(title string, dists []certainty.Distribution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s\n", "Heuristic", "1", "2", "3", "4")
	for _, d := range dists {
		fmt.Fprintf(&b, "%-10s", d.Heuristic)
		for _, v := range d.AtRank {
			fmt.Fprintf(&b, " %7.1f%%", v*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatCertaintyTable renders a Table 4-style certainty-factor table.
func FormatCertaintyTable(title string, t certainty.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s\n", "Heuristic", "1", "2", "3", "4")
	for _, h := range certainty.AllHeuristics {
		fs := t[h]
		fmt.Fprintf(&b, "%-10s", h)
		for i := 0; i < MaxRank; i++ {
			v := 0.0
			if i < len(fs) {
				v = fs[i]
			}
			fmt.Fprintf(&b, " %7.1f%%", v*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatCombinations renders the Table 5 sweep sorted like the paper (by
// combination size then canonical letters).
func FormatCombinations(rows []CombinationResult) string {
	sorted := append([]CombinationResult(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i].Combination, sorted[j].Combination
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a.Abbrev() < b.Abbrev()
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s\n", "Compound", "Success Rate")
	for _, r := range sorted {
		fmt.Fprintf(&b, "%-10s %11.2f%%\n", r.Combination.Abbrev(), r.SuccessRate*100)
	}
	return b.String()
}

// FormatTestTable renders a Tables 6–9 analogue.
func FormatTestTable(title string, rows []TestRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %3s %3s %3s %3s %3s %3s\n", "Site", "OM", "RP", "SD", "IT", "HT", "A")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-28s", row.Site)
		for _, h := range certainty.AllHeuristics {
			fmt.Fprintf(&b, " %3d", row.Ranks[h])
		}
		fmt.Fprintf(&b, " %3d\n", row.A)
	}
	return b.String()
}

// FormatSuccessRates renders Table 10.
func FormatSuccessRates(rates map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s\n", "Heuristic", "Success Rate")
	for _, h := range append(append([]string{}, certainty.AllHeuristics...), "ORSIH") {
		fmt.Fprintf(&b, "%-10s %11.1f%%\n", h, rates[h]*100)
	}
	return b.String()
}
