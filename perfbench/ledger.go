package main

import (
	"context"
	"fmt"

	"repro/internal/certainty"
	"repro/internal/heuristic"
	"repro/internal/ontology"
	"repro/internal/recognizer"
	"repro/internal/tagtree"
)

// Span names of the discovery ledger, in core's stage order.
const (
	spanParse      = "tagtree.parse"
	spanFanout     = "tagtree.fanout"
	spanCandidates = "tagtree.candidates"
	spanRecognize  = "recognizer.recognize"
	spanCompound   = "certainty.compound"
	spanLedger     = "core.ledger"
	spanDiscover   = "core.discover"
)

func heuristicSpan(name string) string { return "heuristic." + name }

// ledgerTotals counts what the replays saw.
type ledgerTotals struct {
	ops        int // operations (documents or requests) the probe covered
	replays    int
	recognized int
	entries    int
	declined   int
}

// replayLayers runs the discovery that core.DiscoverTreeContext performs on
// the arena path as separate calls into each layer's public functions,
// recording one span per call under a core.ledger span, and returns the
// separator the combination picks.
func replayLayers(rec *recorder, trace, parent int64, doc string, ont *ontology.Ontology, arena *tagtree.Arena, lt *ledgerTotals) (string, error) {
	ctx := context.Background()
	root := rec.newID()
	rootStart := rec.now()
	defer func() { rec.add(trace, root, parent, spanLedger, rootStart, rec.now()) }()
	lt.replays++

	start := rec.now()
	tree, err := tagtree.ParseArenaContext(ctx, doc, tagtree.Limits{}, arena, nil)
	rec.record(trace, root, spanParse, start)
	if err != nil {
		return "", fmt.Errorf("ledger parse: %w", err)
	}

	start = rec.now()
	sub := tree.HighestFanOut()
	rec.record(trace, root, spanFanout, start)

	start = rec.now()
	events := tree.SubtreeEvents(sub)
	lens := make([]int32, len(events))
	for i := range events {
		if ev := &events[i]; ev.Kind == tagtree.EventText {
			lens[i] = int32(tagtree.CollapsedLen(ev.Text))
		}
	}
	hctx := &heuristic.Context{
		Tree:            tree,
		Subtree:         sub,
		Candidates:      tagtree.Candidates(sub, tagtree.DefaultCandidateThreshold),
		Ontology:        ont,
		SubtreeTextLens: lens,
	}
	rec.record(trace, root, spanCandidates, start)

	if ont != nil {
		start = rec.now()
		table, err := recognizer.RecognizeContext(ctx, ont, tree, sub, nil)
		rec.record(trace, root, spanRecognize, start)
		if err != nil {
			return "", fmt.Errorf("ledger recognize: %w", err)
		}
		hctx.Table = table
		lt.recognized++
		lt.entries += table.Len()
	}

	switch len(hctx.Candidates) {
	case 0:
		return "", fmt.Errorf("ledger: no candidate separator tags")
	case 1:
		return hctx.Candidates[0].Name, nil
	}
	rankMaps := make(map[string]map[string]int)
	for _, name := range certainty.AllHeuristics {
		start = rec.now()
		r, ok := heuristic.ByName(name).Rank(hctx)
		rec.record(trace, root, heuristicSpan(name), start)
		if !ok {
			lt.declined++
			continue
		}
		rankMaps[name] = r.ToMap()
	}

	start = rec.now()
	tags := make([]string, len(hctx.Candidates))
	for i, c := range hctx.Candidates {
		tags[i] = c.Name
	}
	scores := certainty.Compound(certainty.PaperTable, certainty.AllHeuristics, rankMaps, tags)
	rec.record(trace, root, spanCompound, start)
	return scores[0].Tag, nil
}

// spanTotals summarizes a recorder: per span name, summed self time and
// summed duration in nanoseconds, and the span count.
type spanTotals struct {
	self, dur map[string]float64
	count     map[string]int
}

func (r *recorder) totals() spanTotals {
	self, count := r.selfTimes()
	dur := make(map[string]float64)
	r.mu.Lock()
	for _, s := range r.spans {
		dur[s.name] += float64(s.end - s.start)
	}
	r.mu.Unlock()
	return spanTotals{self: self, dur: dur, count: count}
}

// meanDiscoverNS is the mean core.DiscoverBytesContext time per document.
func (lt *ledgerTotals) meanDiscoverNS(t spanTotals) float64 {
	if t.count[spanDiscover] == 0 {
		return 0
	}
	return t.dur[spanDiscover] / float64(t.count[spanDiscover])
}

// metrics derives the discovery layers' per-layer metrics: each layer's
// self time per operation, how much of core's own time the replayed layer
// calls explain, and the recognizer's and the parser's plus heuristics'
// shares of opTotal, the time of the operations the probe covered.
func (lt *ledgerTotals) metrics(t spanTotals, opTotal float64) map[string]float64 {
	ops := float64(lt.ops)
	perOp := func(name string) float64 { return t.self[name] / ops / 1e3 }
	m := map[string]float64{
		"tagtree.parse_us":         perOp(spanParse),
		"tagtree.fanout_us":        perOp(spanFanout),
		"tagtree.candidates_us":    perOp(spanCandidates),
		"recognizer.recognize_us":  perOp(spanRecognize),
		"certainty.compound_us":    perOp(spanCompound),
		"core.discover_us":         perOp(spanDiscover),
		"recognizer.table_entries": ratio(float64(lt.entries), float64(lt.recognized)),
		"heuristic.declined":       ratio(float64(lt.declined), float64(lt.replays)),
	}
	heur := 0.0
	for _, name := range certainty.AllHeuristics {
		m["heuristic."+name+"_us"] = perOp(heuristicSpan(name))
		heur += t.self[heuristicSpan(name)]
	}
	explained := t.dur[spanLedger] - t.self[spanLedger]
	m["core.ledger_gap"] = 1 - ratio(explained, t.dur[spanDiscover])
	m["ledger.parse_heuristic_share"] = ratio(heur+t.self[spanParse], opTotal)
	m["ledger.recognize_share"] = ratio(t.self[spanRecognize], opTotal)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
