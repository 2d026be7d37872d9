// Package heuristic implements the paper's five independent record-boundary
// heuristics (Section 4):
//
//	HT — highest-count tags
//	IT — identifiable "separator" tags
//	SD — standard deviation of inter-tag text size
//	RP — repeating-tag pattern
//	OM — ontology matching
//
// Each heuristic ranks the candidate separator tags of a document's
// highest-fan-out subtree; a heuristic may also decline to answer (RP with
// no adjacent pairs, OM without enough record-identifying fields). Rankings
// use competition ranking: tags with equal scores share the better rank.
package heuristic

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/recognizer"
	"repro/internal/tagtree"
)

// Context carries everything a heuristic may consult about one document.
// Build it once with NewContext and share it across heuristics — this is
// what keeps the overall process linear: the tag tree, OM's field counts,
// and the statistics HT, SD and RP rank from (candidate counts, SD's text
// intervals, RP's adjacent pairs) are each computed in one pass. A context
// over a tree parsed on a pooled arena keeps those statistics in the
// arena's scratch, so it is valid only as long as the tree.
type Context struct {
	// Tree is the document's tag tree.
	Tree *tagtree.Tree
	// Subtree is the highest-fan-out subtree's root.
	Subtree *tagtree.Node
	// Candidates are the candidate separator tags with their appearance
	// counts, sorted by descending count.
	Candidates []tagtree.Candidate
	// Ontology is the application ontology; nil disables OM.
	Ontology *ontology.Ontology
	// FieldCounts holds, aligned with Ontology.RecordIdentifyingFields(),
	// each record-identifying field's indicator count over the subtree's
	// plain text (recognizer.CountFields): the three numbers OM reads.
	// NewContext fills it when the ontology has enough record-identifying
	// fields.
	FieldCounts []int
	// Table is a Data-Record Table over the subtree's plain text. NewContext
	// leaves it nil; a context assembled by hand around an extraction
	// table may set it instead of FieldCounts, and OM then reads its
	// counts from the table.
	Table *recognizer.Table
	// SubtreeTextLens caches, aligned with Tree.SubtreeEvents(Subtree), the
	// whitespace-collapsed text length of each text event (zero for tag
	// events), so SD and RP — which both need "how much real text is here"
	// per chunk — don't each re-scan every text byte. NewContextCtx takes
	// it from the lengths the parser recorded (Tree.SubtreeTextLens).
	// Contexts assembled by hand may leave it nil; the heuristics then fall
	// back to computing lengths on the fly.
	SubtreeTextLens []int32

	// stats holds the statistics pass's counts (see fillStats):
	// NewContextCtx fills them, a context assembled by hand on first use.
	statsOnce sync.Once
	stats     stats
}

// NewContext parses nothing itself; it derives the heuristic context from an
// already-built tree. threshold is the candidate-tag cutoff
// (tagtree.DefaultCandidateThreshold for the paper's 10% rule). ont may be
// nil, in which case the OM heuristic will decline to answer.
func NewContext(tree *tagtree.Tree, threshold float64, ont *ontology.Ontology) *Context {
	return NewContextTimed(tree, threshold, ont, nil)
}

// Stage is one timed step of Context construction, reported to the observer
// passed to NewContextTimed. Attrs holds alternating key, value descriptive
// pairs (the winning tag, the candidate count, ...).
type Stage struct {
	Name     string // "fanout", "candidates" or "recognize"
	Duration time.Duration
	Attrs    []string
}

// StageFunc observes one completed stage of context construction.
type StageFunc func(Stage)

// NewContextTimed is NewContext with per-stage observation: each derivation
// step — highest-fan-out search, candidate extraction, and (with an
// ontology) recognition of the record-identifying fields — is timed and
// reported to onStage. A nil onStage skips all bookkeeping; this is the
// hook the pipeline's observability layer uses for trace spans and
// stage-latency histograms.
func NewContextTimed(tree *tagtree.Tree, threshold float64, ont *ontology.Ontology, onStage StageFunc) *Context {
	hctx, err := NewContextCtx(context.Background(), tree, threshold, ont, onStage, nil)
	if err != nil {
		// Unreachable: a background context never cancels and a nil fault
		// set never fires.
		panic("heuristic: context build failed without cancellation: " + err.Error())
	}
	return hctx
}

// NewContextCtx is NewContextTimed with cancellation and fault injection:
// recognition — the expensive step — honors ctx and the test-only fault set
// (see internal/faultinject), so a hung-up caller stops paying for
// recognition and chaos tests can force failures here. It returns ctx's
// error when canceled and the recognizer's error when a chunk-scan fault
// fires. Recognition counts only the record-identifying fields' matches
// (recognizer.CountFields); it is skipped when the ontology has fewer than
// three such fields, since OM declines then whatever the counts.
func NewContextCtx(ctx context.Context, tree *tagtree.Tree, threshold float64, ont *ontology.Ontology, onStage StageFunc, faults *faultinject.Set) (*Context, error) {
	start := time.Now()
	sub := tree.HighestFanOut()
	if onStage != nil {
		onStage(Stage{Name: "fanout", Duration: time.Since(start), Attrs: []string{
			"tag", sub.Name, "fan_out", strconv.Itoa(sub.FanOut()),
		}})
		start = time.Now()
	}
	hctx := &Context{
		Tree:            tree,
		Subtree:         sub,
		Ontology:        ont,
		SubtreeTextLens: tree.SubtreeTextLens(sub),
	}
	hctx.statsOnce.Do(func() { hctx.fillStats(threshold, true) })
	if onStage != nil {
		onStage(Stage{Name: "candidates", Duration: time.Since(start), Attrs: []string{
			"count", strconv.Itoa(len(hctx.Candidates)),
		}})
		start = time.Now()
	}
	if _, ok := fieldsOf(ont); ok {
		counts, err := recognizer.CountFields(ctx, ont, tree, sub, faults)
		if err != nil {
			return nil, err
		}
		hctx.FieldCounts = counts
		if onStage != nil {
			matches := 0
			for _, n := range counts {
				matches += n
			}
			onStage(Stage{Name: "recognize", Duration: time.Since(start), Attrs: []string{
				"matches", strconv.Itoa(matches),
			}})
		}
	}
	return hctx, nil
}

// CandidateCount returns the appearance count of the named candidate tag,
// or 0 if the tag is not a candidate.
func (c *Context) CandidateCount(name string) int {
	for _, cand := range c.Candidates {
		if cand.Name == name {
			return cand.Count
		}
	}
	return 0
}

// IsCandidate reports whether name is one of the candidate tags.
func (c *Context) IsCandidate(name string) bool {
	return c.CandidateCount(name) > 0
}

// collapsedTextLen returns the whitespace-collapsed length of the i-th
// subtree event's text: the cached value when the context carries one, a
// direct scan otherwise.
func collapsedTextLen(c *Context, events []tagtree.Event, i int) int {
	if c.SubtreeTextLens != nil {
		return int(c.SubtreeTextLens[i])
	}
	return tagtree.CollapsedLen(events[i].Text)
}

// Ranked is one entry of a heuristic's answer: a candidate tag, its 1-based
// competition rank, and the heuristic's raw score (meaning varies by
// heuristic; exposed for explainability and tests).
type Ranked struct {
	Tag   string
	Rank  int
	Score float64
}

// Ranking is a heuristic's ordered answer, best first.
type Ranking []Ranked

// RankOf returns the 1-based rank of the tag, or 0 if the ranking does not
// include it.
func (r Ranking) RankOf(tag string) int {
	for _, e := range r {
		if e.Tag == tag {
			return e.Rank
		}
	}
	return 0
}

// Tags returns the ranked tag names, best first.
func (r Ranking) Tags() []string {
	out := make([]string, len(r))
	for i, e := range r {
		out[i] = e.Tag
	}
	return out
}

// ToMap converts the ranking to tag → rank form for certainty combination.
func (r Ranking) ToMap() map[string]int {
	out := make(map[string]int, len(r))
	for _, e := range r {
		out[e.Tag] = e.Rank
	}
	return out
}

// Heuristic is one of the paper's five individual heuristics.
type Heuristic interface {
	// Name returns the paper's two-letter abbreviation (OM, RP, SD, IT, HT).
	Name() string
	// Rank orders the candidate tags best-first. ok is false when the
	// heuristic cannot supply an answer for this document.
	Rank(ctx *Context) (r Ranking, ok bool)
}

// All returns the five heuristics in the paper's ORSIH order.
func All() []Heuristic {
	return []Heuristic{OM{}, RP{}, SD{}, IT{}, HT{}}
}

// ByName returns the named heuristic (OM, RP, SD, IT, HT), or nil.
func ByName(name string) Heuristic {
	for _, h := range All() {
		if h.Name() == name {
			return h
		}
	}
	return nil
}

// rank sorts entries that carry their tag and raw score — ascending (lower
// score is better) when ascending is set, descending otherwise, score ties
// ordered by tag name for determinism — and assigns competition ranks: tags
// with equal scores share a rank and the next distinct score skips the
// intervening positions (1, 2, 2, 4). It sorts r in place.
func rank(r Ranking, ascending bool) Ranking {
	slices.SortFunc(r, func(a, b Ranked) int {
		if a.Score != b.Score {
			if (a.Score < b.Score) == ascending {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Tag, b.Tag)
	})
	for i := range r {
		r[i].Rank = i + 1
		if i > 0 && r[i].Score == r[i-1].Score {
			r[i].Rank = r[i-1].Rank
		}
	}
	return r
}
