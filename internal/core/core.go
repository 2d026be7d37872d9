// Package core implements the paper's primary contribution: the
// Record-Boundary Discovery Algorithm of Section 5.3.
//
// Given a Web document containing multiple records, the algorithm
//
//  1. builds the tag tree (Appendix A),
//  2. locates the highest-fan-out subtree,
//  3. extracts the candidate separator tags (the 10% rule),
//  4. applies the five individual heuristics (OM, RP, SD, IT, HT), and
//  5. combines their rankings with Stanford certainty theory using the
//     calibrated certainty factors of Table 4, choosing the tag with the
//     highest compound certainty factor as the record separator.
//
// The package also implements the surrounding Record Extractor of Figure 1:
// splitting the document into record-sized chunks at the separator and
// cleaning markup, ready for downstream recognition.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/certainty"
	"repro/internal/faultinject"
	"repro/internal/heuristic"
	"repro/internal/htmlparse"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// Options configure discovery. The zero value gives the paper's published
// configuration: all five heuristics (ORSIH), the Table 4 certainty factors,
// and the 10% candidate threshold.
type Options struct {
	// Ontology enables the OM heuristic; nil disables it (OM then declines
	// and contributes nothing, as the paper specifies for documents without
	// enough record-identifying fields).
	Ontology *ontology.Ontology
	// Combination selects which heuristics participate; nil means ORSIH.
	Combination certainty.Combination
	// Factors is the rank→certainty table; nil means the paper's Table 4.
	Factors certainty.Table
	// CandidateThreshold is the irrelevant-tag cutoff; 0 means the paper's
	// 10%.
	CandidateThreshold float64
	// SeparatorList overrides IT's identifiable-separator list; nil means
	// the paper's list.
	SeparatorList []string
	// Trace, if non-nil, receives one span per pipeline stage (parse,
	// fan-out search, candidate extraction, recognition, each heuristic,
	// certainty combination) for this call.
	Trace *obs.Trace
	// Metrics, if non-nil, receives pipeline counters and stage-latency
	// histograms (see docs/OBSERVABILITY.md for the metric names).
	Metrics *obs.Registry
	// Limits bounds input resources (document bytes, tag-tree depth, node
	// count); zero-value fields are unlimited. Exceeding a limit fails the
	// call with the sentinel errors of tagtree.Limits / htmlparse.
	Limits tagtree.Limits
	// Faults is the test-only fault-injection hook set (see
	// internal/faultinject); nil — the production value — disables every
	// hook point at the cost of one nil check each.
	Faults *faultinject.Set
	// Templates, if non-nil, enables the learned-wrapper fast path: the
	// tree's structural fingerprint is looked up before the heuristics
	// run, a hit is served from the store, and a clean miss stores the
	// discovered answer for next time (see docs/WRAPPER.md).
	Templates *template.Store
	// TemplateSalt binds store keys to the non-document request options
	// that change the discovery answer; build it with template.Salt from
	// the same fields the caller would hash into a result-cache key.
	// Required whenever Templates is set and any of mode, ontology, or
	// separator list can vary between callers sharing the store.
	TemplateSalt string
	// Arena, if non-nil, is reused memory for the parse: tokens, tree
	// nodes, and event buffers come from it (acquire with
	// tagtree.AcquireArena, release when the result has been copied out).
	// nil parses into a one-shot arena, so the result has heap lifetime.
	// It changes no result, only where the memory comes from; see
	// docs/PERFORMANCE.md for the ownership rules.
	Arena *tagtree.Arena
}

// observed reports whether any observability sink is attached.
func (o Options) observed() bool { return o.Trace != nil || o.Metrics != nil }

// recordStage files one completed stage with both sinks. attrs builds the
// trace span's attributes and runs only when a trace is attached, so a
// metrics-only caller builds no attribute strings. Stage latencies use the
// microsecond-scale StageBuckets — whole stages finish far below the
// HTTP-oriented default bucket floor.
func (o Options) recordStage(name string, d time.Duration, attrs func() []string) {
	if o.Trace != nil {
		o.Trace.Add(name, d, attrs()...)
	}
	o.Metrics.Histogram("boundary_stage_duration_seconds",
		"Pipeline stage latency in seconds, by stage.", obs.StageBuckets,
		"stage", name).Observe(d.Seconds())
}

func (o Options) combination() certainty.Combination {
	if o.Combination == nil {
		return certainty.AllHeuristics
	}
	return o.Combination
}

func (o Options) factors() certainty.Table {
	if o.Factors == nil {
		return certainty.PaperTable
	}
	return o.Factors
}

func (o Options) threshold() float64 {
	if o.CandidateThreshold == 0 {
		return tagtree.DefaultCandidateThreshold
	}
	return o.CandidateThreshold
}

// defaultHeuristics is the paper's combination with the paper's IT list,
// built once: heuristics returns it for the zero Options.
var defaultHeuristics = heuristic.All()

func (o Options) heuristics() []heuristic.Heuristic {
	if o.Combination == nil && o.SeparatorList == nil {
		return defaultHeuristics
	}
	var out []heuristic.Heuristic
	for _, name := range o.combination() {
		h := heuristic.ByName(name)
		if h == nil {
			continue
		}
		if it, ok := h.(heuristic.IT); ok && o.SeparatorList != nil {
			it.List = o.SeparatorList
			h = it
		}
		out = append(out, h)
	}
	return out
}

// Result is the outcome of record-boundary discovery on one document.
type Result struct {
	// Separator is the consensus record-separator tag (the highest
	// compound certainty factor; ties broken by tag name, with all tied
	// tags listed in TopTags).
	Separator string
	// TopTags lists every tag sharing the highest compound CF — the "X
	// tags" of the paper's sc(D) = Y/X success measure. Usually length 1.
	TopTags []string
	// Scores are all candidates with compound certainty factors, best
	// first.
	Scores []certainty.Score
	// Rankings holds each heuristic's individual answer; heuristics that
	// declined are absent.
	Rankings map[string]heuristic.Ranking
	// Candidates are the candidate tags with counts, by descending count.
	Candidates []tagtree.Candidate
	// Subtree is the highest-fan-out subtree's root node.
	Subtree *tagtree.Node
	// Tree is the document's tag tree.
	Tree *tagtree.Tree
	// Degraded reports that at least one heuristic failed (panicked) and
	// the compound certainty was computed from the survivors — the paper's
	// tolerance of missing evidence, applied to our own failures.
	Degraded bool
	// FailedHeuristics names the heuristics that panicked and were
	// isolated, in combination order; empty on a clean run.
	FailedHeuristics []string
	// HeuristicReasons explains, per heuristic name, why a heuristic
	// contributed no ranking: a decline reason in the paper's terms, or
	// "panicked: ..." for an isolated failure. Heuristics that answered are
	// absent.
	HeuristicReasons map[string]string
}

// ErrNoCandidates is returned for documents whose highest-fan-out subtree
// yields no candidate separator tags (e.g. an empty or tagless document).
// The paper assumes every input has multiple records and at least one
// record-separator tag; this error flags inputs violating that assumption.
var ErrNoCandidates = errors.New("core: no candidate separator tags")

// Discover runs the Record-Boundary Discovery Algorithm on an HTML document.
func Discover(doc string, opts Options) (*Result, error) {
	return DiscoverContext(context.Background(), doc, opts)
}

// DiscoverContext is Discover with cancellation: ctx is honored at
// checkpoints throughout the pipeline — the tag-tree build loop, the
// recognizer's chunk scan, and before each heuristic — so an HTTP request
// context that expires actually stops the work instead of merely abandoning
// its result. It returns ctx's error when canceled, and the sentinel limit
// errors of Options.Limits when the document exceeds a resource bound.
func DiscoverContext(ctx context.Context, doc string, opts Options) (*Result, error) {
	start := time.Now()
	if err := opts.Faults.FireCtx(ctx, "core/parse"); err != nil {
		return nil, opts.failDocument(err)
	}
	tree, err := tagtree.ParseArenaContext(ctx, doc, opts.Limits, opts.Arena, opts.Faults)
	if err != nil {
		return nil, opts.failDocument(err)
	}
	if opts.observed() {
		opts.recordStage("parse", time.Since(start), func() []string {
			return []string{"mode", "html", "bytes", strconv.Itoa(len(doc))}
		})
	}
	return DiscoverTreeContext(ctx, tree, opts)
}

// DiscoverBytes runs discovery directly over document bytes without copying
// them into a string: the bytes are viewed zero-copy, so the caller must not
// mutate doc until the result (and anything aliasing it) is dead. Pair it
// with Options.Arena for the fully allocation-free hot path. What outlives
// the call never aliases doc: wrapper-store entries learned from it
// (Options.Templates) own copies of their strings, and so do the tag names
// in trace span attributes, so the caller may reuse doc once the result is
// dead.
func DiscoverBytes(doc []byte, opts Options) (*Result, error) {
	return DiscoverBytesContext(context.Background(), doc, opts)
}

// DiscoverBytesContext is DiscoverBytes with cancellation.
func DiscoverBytesContext(ctx context.Context, doc []byte, opts Options) (*Result, error) {
	return DiscoverContext(ctx, bytesView(doc), opts)
}

// DiscoverXMLBytesContext is the XML counterpart of DiscoverBytesContext.
func DiscoverXMLBytesContext(ctx context.Context, doc []byte, opts Options) (*Result, error) {
	return DiscoverXMLContext(ctx, bytesView(doc), opts)
}

// DiscoverXML runs the algorithm on an XML document (the paper's footnote 1
// generalization to other DTDs): the tag tree is built with XML semantics —
// case-sensitive names, no void elements, no implied closings. Note that
// IT's default separator list is HTML-specific; for XML vocabularies
// callers usually supply Options.SeparatorList (or rely on the other
// heuristics, which are markup-agnostic).
func DiscoverXML(doc string, opts Options) (*Result, error) {
	return DiscoverXMLContext(context.Background(), doc, opts)
}

// DiscoverXMLContext is DiscoverXML with cancellation and resource limits,
// the XML counterpart of DiscoverContext.
func DiscoverXMLContext(ctx context.Context, doc string, opts Options) (*Result, error) {
	start := time.Now()
	if err := opts.Faults.FireCtx(ctx, "core/parse"); err != nil {
		return nil, opts.failDocument(err)
	}
	tree, err := tagtree.ParseXMLArenaContext(ctx, doc, opts.Limits, opts.Arena, opts.Faults)
	if err != nil {
		return nil, opts.failDocument(err)
	}
	if opts.observed() {
		opts.recordStage("parse", time.Since(start), func() []string {
			return []string{"mode", "xml", "bytes", strconv.Itoa(len(doc))}
		})
	}
	return DiscoverTreeContext(ctx, tree, opts)
}

// DiscoverTree runs discovery over an already-parsed tag tree, for callers
// that need the tree for other purposes too.
func DiscoverTree(tree *tagtree.Tree, opts Options) (*Result, error) {
	return DiscoverTreeContext(context.Background(), tree, opts)
}

// DiscoverTreeContext is DiscoverTree with cancellation and heuristic fault
// isolation. Each heuristic runs behind recover(): one that panics becomes
// a recorded failure (Result.Degraded / Result.FailedHeuristics, the
// boundary_heuristic_panics_total metric, and a "panicked" trace attribute)
// and the compound certainty is computed from the survivors — mirroring the
// paper's Stanford-certainty tolerance of heuristics that decline.
func DiscoverTreeContext(ctx context.Context, tree *tagtree.Tree, opts Options) (*Result, error) {
	// Learned-wrapper fast path: a known template shape skips the
	// heuristics entirely. A miss (or a 1-in-N spot-check hit) falls
	// through to full discovery, whose answer is then stored; spotEntry
	// carries the stored answer a spot-check must re-verify against.
	var tmplKey template.Key
	var spotEntry *template.Entry
	if opts.Templates != nil {
		start := time.Now()
		fp, hfo := template.FingerprintTree(tree)
		tmplKey = template.MakeKey(fp, opts.TemplateSalt)
		if e, ok := opts.Templates.Lookup(tmplKey); ok {
			switch {
			case e.Subtree != hfo.Name:
				// Same hash, different fan-out winner: treat as
				// drift, never serve a mismatched wrapper.
				opts.Templates.ReportDrift(tmplKey, "subtree_mismatch")
			case opts.Templates.SpotCheck():
				spotEntry = e
			default:
				res := resultFromEntry(e, tree, hfo)
				opts.ObserveTemplateHit(time.Since(start), e)
				return res, nil
			}
		}
	}

	// Recognition (counting the record-identifying fields' matches for OM)
	// is by far the most expensive context ingredient; skip it when OM is
	// not voting.
	ont := opts.Ontology
	if !opts.combination().Contains(certainty.OM) {
		ont = nil
	}
	var onStage heuristic.StageFunc
	if opts.observed() {
		onStage = func(s heuristic.Stage) {
			opts.recordStage(s.Name, s.Duration, func() []string {
				// Spans outlive the document, and a stage's tag name may
				// view it (see DiscoverBytes): copy the attributes.
				for i, a := range s.Attrs {
					s.Attrs[i] = strings.Clone(a)
				}
				return s.Attrs
			})
		}
	}
	hctx, err := heuristic.NewContextCtx(ctx, tree, opts.threshold(), ont, onStage, opts.Faults)
	if err != nil {
		return nil, opts.failDocument(err)
	}
	if len(hctx.Candidates) == 0 {
		opts.countDocument("no_candidates")
		return nil, ErrNoCandidates
	}

	res := &Result{
		Rankings:   make(map[string]heuristic.Ranking),
		Candidates: hctx.Candidates,
		Subtree:    hctx.Subtree,
		Tree:       tree,
	}

	// Section 3: a single candidate is the separator outright.
	if len(hctx.Candidates) == 1 {
		res.Separator = hctx.Candidates[0].Name
		res.TopTags = []string{res.Separator}
		res.Scores = []certainty.Score{{Tag: res.Separator, CF: 1}}
		opts.countDocument("single_candidate")
		opts.templateLearn(tmplKey, spotEntry, res)
		return res, nil
	}

	// The heuristics run in combination order on the caller's goroutine,
	// each isolated by recover() so a panicking heuristic is contained in
	// its own slot; each costs a few microseconds, less than a goroutine
	// handoff. All observability is filed after the loop, keeping trace
	// output deterministic.
	var answerBuf [5]heuristicAnswer
	answers := answerBuf[:0]
	for _, h := range opts.heuristics() {
		answers = append(answers, opts.runHeuristic(ctx, h, hctx))
	}
	if err := ctx.Err(); err != nil {
		return nil, opts.failDocument(err)
	}

	for i := range answers {
		a := &answers[i]
		switch {
		case a.panicked:
			a.reason = "panicked: " + a.panicMsg
		case !a.ok && a.reason == "":
			a.reason = heuristic.DeclineReason(a.name, hctx)
			if a.reason == "" {
				a.reason = "declined"
			}
		}
		if opts.observed() {
			opts.observeHeuristic(*a)
		}
		if a.panicked {
			res.Degraded = true
			res.FailedHeuristics = append(res.FailedHeuristics, a.name)
		}
		if !a.ok || a.panicked {
			if res.HeuristicReasons == nil {
				res.HeuristicReasons = make(map[string]string)
			}
			res.HeuristicReasons[a.name] = a.reason
			continue
		}
		res.Rankings[a.name] = a.r
	}

	if err := opts.Faults.FireCtx(ctx, "core/combine"); err != nil {
		return nil, opts.failDocument(err)
	}
	start := time.Now()
	res.Scores = opts.combine(tree.Scratch(), hctx.Candidates, answers)
	res.Separator = res.Scores[0].Tag
	for _, s := range res.Scores {
		if s.CF == res.Scores[0].CF {
			res.TopTags = append(res.TopTags, s.Tag)
		}
	}
	if opts.observed() {
		opts.recordStage("combine", time.Since(start), func() []string {
			// Spans outlive the document: copy the tag name.
			return []string{"separator", strings.Clone(res.Separator), "cf", fmt.Sprintf("%.4f", res.Scores[0].CF)}
		})
	}
	if res.Degraded {
		opts.Trace.SetStatus(obs.StatusDegraded,
			"failed heuristics: "+strings.Join(res.FailedHeuristics, ","))
		opts.countDocument("degraded")
	} else {
		opts.countDocument("ok")
	}
	opts.templateLearn(tmplKey, spotEntry, res)
	return res, nil
}

// combine computes the compound certainty factors of the candidates from
// the heuristics' answers: certainty.CompoundRanks, with each combination
// member's ranks, aligned with the candidates, carved from scratch. A
// member takes the last answer of its name that ranked (the one
// Result.Rankings keeps); with none it contributes nothing.
func (o Options) combine(scratch *tagtree.Scratch, cands []tagtree.Candidate, answers []heuristicAnswer) []certainty.Score {
	comb := o.combination()
	var rankBuf [8][]int32
	ranks := rankBuf[:0]
	for _, name := range comb {
		var row []int32
		for i := len(answers) - 1; i >= 0; i-- {
			if a := &answers[i]; a.name == name && a.ok && !a.panicked {
				row = scratch.Int32s(len(cands))
				for _, e := range a.r {
					for j := range cands {
						if cands[j].Name == e.Tag {
							row[j] = int32(e.Rank)
							break
						}
					}
				}
				break
			}
		}
		ranks = append(ranks, row)
	}
	var tagBuf [16]string
	tags := tagBuf[:0]
	for _, c := range cands {
		tags = append(tags, c.Name)
	}
	return certainty.CompoundRanks(o.factors(), comb, ranks, tags)
}

// templateLearn stores a freshly-discovered answer in the wrapper store and
// settles a pending spot-check: a stored answer matching the fresh one is
// healthy; a divergent one is drift — evicted, then overwritten by the fresh
// answer. Degraded results are never stored (the answer came from surviving
// heuristics only, mirroring the result cache's completeness rule).
func (o Options) templateLearn(key template.Key, spot *template.Entry, res *Result) {
	if o.Templates == nil || res.Degraded {
		return
	}
	e := NewTemplateEntry(key, res)
	if spot != nil {
		if spot.Equal(e) {
			o.Templates.ReportSpotCheck("ok")
		} else {
			o.Templates.ReportSpotCheck("divergent")
			o.Templates.ReportDrift(key, "divergent")
		}
	}
	o.Templates.Put(e)
}

// NewTemplateEntry snapshots a clean discovery result as a wrapper-store
// entry under key. The entry holds every field needed to rebuild a Result
// (and hence a wire response) byte-identical to res on any same-shaped tree.
// Every string is copied: a result's tag names may be zero-copy views of the
// document (names outside the HTML atom table, every XML name), and an entry
// outlives the document — it must neither read the caller's bytes after
// they are reused nor keep the whole document alive.
func NewTemplateEntry(key template.Key, res *Result) *template.Entry {
	e := &template.Entry{
		Key:       key.String(),
		Separator: strings.Clone(res.Separator),
		TopTags:   make([]string, len(res.TopTags)),
		Subtree:   strings.Clone(res.Subtree.Name),
		Certainty: res.Scores[0].CF,
	}
	for i, tag := range res.TopTags {
		e.TopTags[i] = strings.Clone(tag)
	}
	for _, s := range res.Scores {
		e.Scores = append(e.Scores, template.Score{Tag: strings.Clone(s.Tag), CF: s.CF})
	}
	if len(res.Rankings) > 0 {
		e.Rankings = make(map[string][]template.RankEntry, len(res.Rankings))
		for name, r := range res.Rankings {
			rows := make([]template.RankEntry, len(r))
			for i, row := range r {
				rows[i] = template.RankEntry{Tag: strings.Clone(row.Tag), Rank: row.Rank}
			}
			e.Rankings[strings.Clone(name)] = rows
		}
	}
	for _, c := range res.Candidates {
		e.Candidates = append(e.Candidates, template.Candidate{Tag: strings.Clone(c.Name), Count: c.Count})
	}
	if len(res.HeuristicReasons) > 0 {
		e.Reasons = make(map[string]string, len(res.HeuristicReasons))
		for k, v := range res.HeuristicReasons {
			e.Reasons[strings.Clone(k)] = strings.Clone(v)
		}
	}
	return e
}

// resultFromEntry rebuilds a Result from a stored wrapper entry. tree and
// hfo are the current document's — real nodes, so downstream record
// splitting works exactly as after a full discovery. The per-heuristic
// ranking Scores are not stored (no wire surface carries them), so rebuilt
// Rankings have Score zero.
func resultFromEntry(e *template.Entry, tree *tagtree.Tree, hfo *tagtree.Node) *Result {
	res := &Result{
		Separator: e.Separator,
		TopTags:   append([]string(nil), e.TopTags...),
		Rankings:  make(map[string]heuristic.Ranking, len(e.Rankings)),
		Subtree:   hfo,
		Tree:      tree,
	}
	for _, s := range e.Scores {
		res.Scores = append(res.Scores, certainty.Score{Tag: s.Tag, CF: s.CF})
	}
	for name, rows := range e.Rankings {
		r := make(heuristic.Ranking, len(rows))
		for i, row := range rows {
			r[i] = heuristic.Ranked{Tag: row.Tag, Rank: row.Rank}
		}
		res.Rankings[name] = r
	}
	for _, c := range e.Candidates {
		res.Candidates = append(res.Candidates, tagtree.Candidate{Name: c.Tag, Count: c.Count})
	}
	if len(e.Reasons) > 0 {
		res.HeuristicReasons = make(map[string]string, len(e.Reasons))
		for k, v := range e.Reasons {
			res.HeuristicReasons[k] = v
		}
	}
	return res
}

// runHeuristic runs one heuristic behind recover(): a panic becomes an
// answer marked panicked instead of failing the call. A canceled context
// turns the heuristic into a decline; DiscoverTreeContext's check after the
// loop then fails the whole call.
func (o Options) runHeuristic(ctx context.Context, h heuristic.Heuristic, hctx *heuristic.Context) (a heuristicAnswer) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			a = heuristicAnswer{
				name: h.Name(), d: time.Since(start),
				panicked: true, panicMsg: fmt.Sprint(r),
			}
		}
	}()
	if ctx.Err() != nil {
		return heuristicAnswer{name: h.Name()}
	}
	if err := o.Faults.FireCtx(ctx, pointsOf(h.Name()).fault); err != nil {
		return heuristicAnswer{name: h.Name(), d: time.Since(start), reason: "fault injected"}
	}
	r, ok := h.Rank(hctx)
	return heuristicAnswer{name: h.Name(), d: time.Since(start), r: r, ok: ok}
}

// heuristicAnswer is one heuristic's result, held until every heuristic has
// run so observability is filed in a stable order. panicked marks an
// isolated heuristic panic (panicMsg carries the value).
type heuristicAnswer struct {
	name     string
	d        time.Duration
	r        heuristic.Ranking
	ok       bool
	panicked bool
	panicMsg string
	// reason says why the heuristic contributed nothing (decline reason,
	// injected fault, panic); "" when it answered.
	reason string
}

// failDocument counts a failed document under the outcome its error class
// maps to (canceled, limit, or error), escalates the trace's status, and
// returns the error unchanged.
func (o Options) failDocument(err error) error {
	o.Trace.SetStatus(obs.StatusError, err.Error())
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		o.countDocument("canceled")
	case errors.Is(err, htmlparse.ErrTooLarge),
		errors.Is(err, tagtree.ErrTooDeep),
		errors.Is(err, tagtree.ErrTooManyNodes):
		o.countDocument("limit")
	default:
		o.countDocument("error")
	}
	return err
}

// ObserveTemplateHit files a document answered from the wrapper store as
// every discovered document is filed: a template/hit stage (trace span and
// stage histogram) and an "ok" document. DiscoverTreeContext files its
// tree-level hits here, and so does a caller that serves a hit before any
// parse.
func (o Options) ObserveTemplateHit(d time.Duration, e *template.Entry) {
	if o.observed() {
		o.recordStage("template/hit", d, func() []string {
			return []string{"separator", e.Separator, "cf", fmt.Sprintf("%.4f", e.Certainty)}
		})
	}
	o.countDocument("ok")
}

// countDocument increments the per-outcome document counter.
func (o Options) countDocument(outcome string) {
	o.Metrics.Counter("boundary_documents_total",
		"Documents run through boundary discovery, by outcome.",
		"outcome", outcome).Inc()
}

// observeHeuristic files one heuristic's answer (decline, or isolated
// panic) with both sinks: a trace span named heuristic/<name>, a
// stage-latency observation, and run/decline/panic counters.
func (o Options) observeHeuristic(a heuristicAnswer) {
	o.recordStage(pointsOf(a.name).stage, a.d, func() []string {
		switch {
		case a.panicked:
			return []string{"panicked", "true", "panic", a.panicMsg}
		case a.ok && len(a.r) > 0:
			return []string{"declined", "false", "rank1", strings.Clone(a.r[0].Tag)}
		}
		return []string{"declined", "true", "reason", a.reason}
	})
	o.Metrics.Histogram("boundary_heuristic_duration_seconds",
		"One heuristic's ranking latency in seconds, by heuristic.",
		obs.StageBuckets, "heuristic", a.name).Observe(a.d.Seconds())
	o.Metrics.Counter("boundary_heuristic_runs_total",
		"Heuristic invocations, by heuristic.", "heuristic", a.name).Inc()
	switch {
	case a.panicked:
		o.Metrics.Counter("boundary_heuristic_panics_total",
			"Heuristic invocations that panicked and were isolated, by heuristic.",
			"heuristic", a.name).Inc()
	case !a.ok:
		o.Metrics.Counter("boundary_heuristic_declines_total",
			"Heuristic invocations that declined to answer, by heuristic.",
			"heuristic", a.name).Inc()
	}
}

// heuristicPoints are one heuristic's per-document names: its trace and
// stage-metric name "heuristic/<NAME>" and its fault point
// "core/heuristic/<NAME>".
type heuristicPoints struct{ stage, fault string }

// pointsOf returns the names for a heuristic, constants for the paper's
// five so the per-document path builds no strings.
func pointsOf(name string) heuristicPoints {
	switch name {
	case certainty.OM:
		return heuristicPoints{"heuristic/OM", "core/heuristic/OM"}
	case certainty.RP:
		return heuristicPoints{"heuristic/RP", "core/heuristic/RP"}
	case certainty.SD:
		return heuristicPoints{"heuristic/SD", "core/heuristic/SD"}
	case certainty.IT:
		return heuristicPoints{"heuristic/IT", "core/heuristic/IT"}
	case certainty.HT:
		return heuristicPoints{"heuristic/HT", "core/heuristic/HT"}
	}
	return heuristicPoints{"heuristic/" + name, "core/heuristic/" + name}
}

// Record is one record-sized chunk of a document.
type Record struct {
	// HTML is the raw markup of the chunk.
	HTML string
	// Text is the chunk's plain text with markup removed and whitespace
	// collapsed — the "cleaned" unstructured record document of Figure 1.
	Text string
	// Start and End are the chunk's byte offsets in the original document.
	Start, End int
}

// Split partitions the document at the separator-tag occurrences inside the
// highest-fan-out subtree, returning one Record per chunk between
// consecutive separators. Content before the first separator and after the
// last one (within the subtree) forms leading/trailing chunks; chunks with
// no plain text (adjacent separators, a trailing separator at the subtree's
// edge) are dropped.
//
// Record.Text comes from the already-built tree's event stream, so the whole
// split is one linear pass with no re-tokenization — and the text honors the
// semantics the tree was parsed with (a record split from a DiscoverXML
// result is never re-read with HTML's void elements or raw-text rules).
func Split(doc string, res *Result) []Record {
	positions := tagtree.Occurrences(res.Tree, res.Subtree, res.Separator)
	if len(positions) == 0 {
		return nil
	}
	subStart, subEnd := res.Subtree.StartPos, res.Subtree.EndPos
	bounds := append([]int{subStart}, positions...)
	bounds = append(bounds, subEnd)

	// One merge walk: text events and bounds are both in ascending document
	// order, and text runs never straddle a bound (every bound is a
	// start-tag position, which terminates any text run before it).
	events := res.Tree.SubtreeEvents(res.Subtree)
	ei := 0
	var out []Record
	var parts []string
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if lo >= hi || lo < 0 || hi > len(doc) {
			continue
		}
		for ei < len(events) && events[ei].Pos < lo {
			ei++
		}
		parts = parts[:0]
		for ; ei < len(events) && events[ei].Pos < hi; ei++ {
			if events[ei].Kind != tagtree.EventText {
				continue
			}
			if s := tagtree.CollapseSpace(events[ei].Text); s != "" {
				parts = append(parts, s)
			}
		}
		if len(parts) == 0 {
			continue
		}
		out = append(out, Record{
			HTML:  doc[lo:hi],
			Text:  strings.Join(parts, " "),
			Start: lo,
			End:   hi,
		})
	}
	return out
}

// Boundaries returns the record boundaries Split produces as byte spans —
// the machine-comparable form the evaluation harness scores extractors on
// (see internal/eval and docs/EVALUATION.md).
func (r *Result) Boundaries(doc string) []tagtree.Span {
	recs := Split(doc, r)
	spans := make([]tagtree.Span, len(recs))
	for i, rec := range recs {
		spans[i] = tagtree.Span{Start: rec.Start, End: rec.End}
	}
	return spans
}

// SplitAt partitions a document at a known separator tag without running
// discovery: parse, locate the highest-fan-out subtree, split. This is the
// oracle path for callers that already know a page's wrapper — the
// evaluation harness uses it to materialize ground-truth boundaries from a
// corpus document's planted separator, and it is the cheapest way to
// re-split a page whose separator was learned out of band. It returns no
// records when the separator never occurs inside the subtree.
func SplitAt(doc, separator string, limits tagtree.Limits) ([]Record, error) {
	tree, err := tagtree.ParseContext(context.Background(), doc, limits)
	if err != nil {
		return nil, err
	}
	res := &Result{Separator: separator, Subtree: tree.HighestFanOut(), Tree: tree}
	return Split(doc, res), nil
}

// Explain renders a human-readable report of a discovery result: the chosen
// separator, each heuristic's ranking, and the compound scores — the
// worked-example format of §5.3.
func Explain(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "highest-fan-out subtree: <%s> (fan-out %d)\n", res.Subtree.Name, res.Subtree.FanOut())
	b.WriteString("candidates:")
	for _, c := range res.Candidates {
		fmt.Fprintf(&b, " %s(%d)", c.Name, c.Count)
	}
	b.WriteByte('\n')
	for _, name := range certainty.AllHeuristics {
		r, ok := res.Rankings[name]
		if !ok {
			fmt.Fprintf(&b, "%s: (no answer)\n", name)
			continue
		}
		fmt.Fprintf(&b, "%s: [", name)
		for i, e := range r {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%s, %d)", e.Tag, e.Rank)
		}
		b.WriteString("]\n")
	}
	b.WriteString("compound: [")
	for i, s := range res.Scores {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%s, %.2f%%)", s.Tag, s.CF*100)
	}
	b.WriteString("]\n")
	fmt.Fprintf(&b, "separator: <%s>\n", res.Separator)
	return b.String()
}
