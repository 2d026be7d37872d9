// Package recognizer implements the Constant/Keyword Recognizer of the
// paper's Figure 1 pipeline: it applies the matching rules generated from an
// application ontology to the plain text of a document and produces the
// Data-Record Table — one row per recognized keyword or constant, carrying a
// descriptor, the matched string, and its position, ordered by position.
//
// The Database-Instance Generator partitions the table at the discovered
// separator positions to build records. The OM heuristic (§4.5) reads only
// one occurrence count per record-identifying field from it, so discovery,
// which has no table of its own, runs CountFields instead: the same scan
// over just those fields' rules, counting matches without building the
// table.
package recognizer

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// Entry is one row of the Data-Record Table.
type Entry struct {
	// ObjectSet names the object set whose rule matched.
	ObjectSet string
	// Kind distinguishes keyword matches from constant (value) matches.
	Kind ontology.RuleKind
	// String is the matched text.
	String string
	// Pos is the byte offset of the match in the original document.
	Pos int
	// End is the byte offset just past the match.
	End int
}

// Descriptor renders the entry's descriptor, e.g. "DeathDate/keyword".
func (e Entry) Descriptor() string { return e.ObjectSet + "/" + e.Kind.String() }

// Table is the Data-Record Table: entries sorted by position in the
// document (ties broken by object-set name, then kind).
type Table struct {
	Entries []Entry
}

// Len returns the number of entries ("lines" in the paper's O(d) analysis).
func (t *Table) Len() int { return len(t.Entries) }

// CountKeyword returns the number of keyword entries for the object set.
func (t *Table) CountKeyword(objectSet string) int {
	return t.count(objectSet, ontology.KeywordRule)
}

// CountConstant returns the number of constant entries for the object set.
func (t *Table) CountConstant(objectSet string) int {
	return t.count(objectSet, ontology.ConstantRule)
}

// count scans the entries linearly. Discovery reads CountFields instead of
// a table, so only extraction-side callers and hand-built contexts pay it.
func (t *Table) count(objectSet string, kind ontology.RuleKind) int {
	n := 0
	for _, e := range t.Entries {
		if e.ObjectSet == objectSet && e.Kind == kind {
			n++
		}
	}
	return n
}

// Slice returns the entries with Pos in [from, to), preserving order. It is
// how the Database-Instance Generator partitions the table into records.
func (t *Table) Slice(from, to int) []Entry {
	lo := sort.Search(len(t.Entries), func(i int) bool { return t.Entries[i].Pos >= from })
	hi := sort.Search(len(t.Entries), func(i int) bool { return t.Entries[i].Pos >= to })
	return t.Entries[lo:hi]
}

// Recognize runs the ontology's matching rules over the plain text of the
// subtree rooted at n (normally the highest-fan-out subtree) and returns the
// Data-Record Table. Text chunks are matched individually — a rule never
// matches across a tag boundary, mirroring how the paper's recognizers run
// over the cleaned text between tags. Positions are document offsets.
//
// Each rule's matches in a chunk are exactly those of its Pattern's
// FindAllStringIndex, found by the rule's scan plan (see
// ontology.ScanPlan): one Aho–Corasick pass over the chunk finds every
// rule's anchor and gate literals, and each candidate start they give is
// verified by the rule's leftmost-first DFA, or, for a rule without one,
// by its regexp inside a window no wider than the longest possible match.
// Rules the planner cannot prove safe run their regexp over the whole
// chunk. Chunks are scanned in document order and each chunk's entries are
// sorted locally, which leaves the table globally sorted without a final
// full-table sort.
func Recognize(ont *ontology.Ontology, tree *tagtree.Tree, n *tagtree.Node) *Table {
	t, err := RecognizeContext(context.Background(), ont, tree, n, nil)
	if err != nil {
		// Unreachable: a background context never cancels and a nil fault
		// set never fires, so the scan cannot fail.
		panic("recognizer: Recognize failed without context or faults: " + err.Error())
	}
	return t
}

// scanCheckEvery is how many chunks a scan processes between context
// checks.
const scanCheckEvery = 64

// RecognizeContext is Recognize with cancellation and fault injection: the
// scan stops promptly when ctx is canceled, a panicking chunk scan is
// contained and surfaced as an error instead of crashing the process, and
// faults (nil in production) arms the "recognizer/chunk" hook point fired
// once per scanned chunk. The entries are copied out of the pooled scratch,
// so the returned table never aliases pooled memory.
func RecognizeContext(ctx context.Context, ont *ontology.Ontology, tree *tagtree.Tree, n *tagtree.Node, faults *faultinject.Set) (*Table, error) {
	cs := chunkScratchPool.Get().(*chunkScratch)
	defer cs.release()
	if err := scanSerial(ctx, tree.SubtreeEvents(n), faults, func(ev tagtree.Event) {
		cs.out = scanChunk(cs.out, ont, cs, ev)
	}); err != nil {
		return nil, err
	}
	var entries []Entry
	if len(cs.out) > 0 {
		entries = slices.Clone(cs.out)
	}
	return &Table{Entries: entries}, nil
}

// CountFields returns, aligned with ont.RecordIdentifyingFields(), each
// record-identifying field's indicator count over the plain text of the
// subtree rooted at n: FieldCount over the Data-Record Table Recognize
// would build, without building it. Only the discovery rule set
// (ontology.DiscoveryRuleSet) runs, each match adds one to its field's
// count, and no Entry is made. Rules match independently, so the counts
// equal the full table's. It returns nil when the ontology has fewer than
// three record-identifying fields. Like RecognizeContext, it honors ctx,
// contains a panicking chunk scan and fires the "recognizer/chunk" hook
// once per text chunk.
func CountFields(ctx context.Context, ont *ontology.Ontology, tree *tagtree.Tree, n *tagtree.Node, faults *faultinject.Set) ([]int, error) {
	fields, ok := ont.RecordIdentifyingFields()
	if !ok {
		return nil, nil
	}
	rs := ont.DiscoveryRuleSet()
	counts := make([]int, len(fields))
	cs := chunkScratchPool.Get().(*chunkScratch)
	defer cs.release()
	if err := scanSerial(ctx, tree.SubtreeEvents(n), faults, func(ev tagtree.Event) {
		matchChunk(rs, cs, ev.Text, func(ri, _, _ int) { counts[rs.Field[ri]]++ })
	}); err != nil {
		return nil, err
	}
	return counts, nil
}

// scanSerial calls scan for each text event on the calling goroutine,
// checking ctx every scanCheckEvery chunks, firing the per-chunk fault
// hook, and turning a panicking scan into an error.
func scanSerial(ctx context.Context, events []tagtree.Event, faults *faultinject.Set, scan func(tagtree.Event)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recognizer: chunk scan panicked: %v", r)
		}
	}()
	i := 0
	for _, ev := range events {
		if ev.Kind != tagtree.EventText {
			continue
		}
		if i%scanCheckEvery == scanCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		i++
		if faults != nil {
			if err := faults.FireCtx(ctx, "recognizer/chunk"); err != nil {
				return err
			}
		}
		scan(ev)
	}
	return nil
}

// chunkScratch is a scan's state: per rule, the starts of its anchor or
// gate hits in the current chunk, and the entries found so far, which the
// caller copies out before release.
type chunkScratch struct {
	hits [][]int32
	out  []Entry
}

// maxRetained bounds the kept capacity of a pooled hit list or output
// buffer.
const maxRetained = 1 << 14

var chunkScratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// release scrubs the output buffer's document references and repools.
func (cs *chunkScratch) release() {
	for i, h := range cs.hits {
		if cap(h) > maxRetained {
			cs.hits[i] = nil
		}
	}
	if cap(cs.out) > maxRetained {
		cs.out = nil
	} else {
		clear(cs.out)
		cs.out = cs.out[:0]
	}
	chunkScratchPool.Put(cs)
}

// scanChunk appends one chunk's matches of every rule to entries, locally
// sorted. matchChunk finds them rule by rule in the ontology's scan order,
// so a stable sort by position alone leaves entries at one position
// ordered by object set, then kind.
func scanChunk(entries []Entry, ont *ontology.Ontology, cs *chunkScratch, ev tagtree.Event) []Entry {
	rs := ont.RuleSet()
	chunkStart := len(entries)
	matchChunk(rs, cs, ev.Text, func(ri, start, end int) {
		entries = appendEntry(entries, &rs.Rules[ri], ev, start, end)
	})
	sortEntries(entries[chunkStart:])
	return entries
}

// matchChunk calls emit with the rule index and span of each of the rule
// set's matches in text, rule by rule in scan order and, within a rule, in
// ascending position. Each rule's matches are those of its Pattern's
// FindAllStringIndex over the chunk, found in three steps: one
// Aho–Corasick pass over the chunk collects every rule's anchor and gate
// hits; each rule's hits are sorted into candidate starts; and each
// candidate at or after the end of the rule's previous match is verified
// (see matchAt).
func matchChunk(rs *ontology.RuleSet, cs *chunkScratch, text string, emit func(ri, start, end int)) {
	rules, lits := rs.Rules, rs.Literals
	if len(cs.hits) < len(rules) {
		cs.hits = make([][]int32, len(rules))
	}
	for i := range rules {
		cs.hits[i] = cs.hits[i][:0]
	}
	st := int32(0)
	for i := 0; i < len(text); i++ {
		st = lits.Next(st, text[i])
		for _, u := range lits.Uses(st) {
			if s := int32(i+1) - u.Back; s >= 0 {
				cs.hits[u.Rule] = append(cs.hits[u.Rule], s)
			}
		}
	}

	for _, ri := range rs.ScanOrder {
		r := &rules[ri]
		p := r.Plan
		hits := cs.hits[ri]
		if p.Gates != nil && len(hits) == 0 {
			continue
		}
		slices.Sort(hits)
		switch {
		case p.Mode == ontology.ScanAnchored:
			// Anchor hits are candidate starts.
			pos := 0
			for k, s := range hits {
				if int(s) < pos || k > 0 && s == hits[k-1] {
					continue
				}
				if end, ok := matchAt(p, text, int(s)); ok {
					emit(ri, int(s), end)
					pos = end
				}
			}
		case p.Mode == ontology.ScanFirstByte && p.Gates == nil:
			for s := 0; s < len(text); s++ {
				if !p.First.Has(text[s]) {
					continue
				}
				if end, ok := matchAt(p, text, s); ok {
					emit(ri, s, end)
					s = end - 1
				}
			}
		case p.Mode == ontology.ScanFirstByte:
			// A match starting at s holds a gate hit starting at some g >= s,
			// inside the longest match and the alphabet run from s, so the
			// candidates for a hit at g run back from g to the start of
			// that run. next is where the untried candidates begin.
			next := 0
			for _, g32 := range hits {
				g := int(g32)
				if g < next {
					continue
				}
				lo := g
				for lo > next && p.Alphabet.Has(text[lo-1]) {
					lo--
				}
				if p.MaxWidth >= 0 {
					lo = max(lo, g+1-p.MaxWidth)
				}
				for s := lo; s <= g; s++ {
					if !p.First.Has(text[s]) {
						continue
					}
					if end, ok := matchAt(p, text, s); ok {
						emit(ri, s, end)
						s, next = end-1, end
					}
				}
				next = max(next, g+1)
			}
		default:
			for _, m := range r.Pattern.FindAllStringIndex(text, -1) {
				emit(ri, m[0], m[1])
			}
		}
	}
}

// matchAt returns the end of the rule's match starting at s, if there is
// one: the match FindAllStringIndex reports at s when its search reaches
// s. The rule's DFA reads the chunk from s; a rule without one runs its
// anchored regexp on a window that holds any match starting at s. Every
// match is non-empty, so the end lies past s.
func matchAt(p *ontology.ScanPlan, text string, s int) (int, bool) {
	if !p.First.Has(text[s]) {
		return 0, false
	}
	if p.WordBoundary && (s > 0 && isWordByte(text[s-1])) == isWordByte(text[s]) {
		return 0, false
	}
	if p.DFA != nil {
		end := p.DFA.Match(text, s)
		return end, end >= 0
	}
	loc := p.Verify.FindStringIndex(text[s:p.WindowEnd(text, s)])
	if loc == nil {
		return 0, false
	}
	return s + loc[1], true
}

// isWordByte reports whether b is an ASCII word character, the only kind
// regexp's \b recognizes; a byte of a multi-byte rune is never one.
func isWordByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

// appendEntry appends the rule's match text[start:end] of chunk ev.
func appendEntry(entries []Entry, r *ontology.Rule, ev tagtree.Event, start, end int) []Entry {
	return append(entries, Entry{
		ObjectSet: r.ObjectSet,
		Kind:      r.Kind,
		String:    ev.Text[start:end],
		Pos:       ev.Pos + start,
		End:       ev.Pos + end,
	})
}

// sortEntries orders one chunk's entries, appended rule by rule in scan
// order, by position. The sort is stable, so entries at one position stay
// in scan order: by object-set name, then kind, then rule order — the
// table's canonical order.
func sortEntries(entries []Entry) {
	slices.SortStableFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Pos, b.Pos) })
}

// FieldCount returns the number of indicator occurrences for one
// record-identifying field, per §4.5: keyword occurrences for
// keyword-indicated fields, constant occurrences otherwise.
func FieldCount(t *Table, f ontology.RecordIdentifyingField) int {
	if f.UseKeywords {
		return t.CountKeyword(f.Set.Name)
	}
	return t.CountConstant(f.Set.Name)
}

// EstimateRecordCount averages the indicator counts of the ontology's
// record-identifying fields — the paper's estimate of the number of records
// in the document. ok is false when the ontology has fewer than three
// record-identifying fields (OM then declines to answer).
func EstimateRecordCount(ont *ontology.Ontology, t *Table) (estimate float64, ok bool) {
	fields, ok := ont.RecordIdentifyingFields()
	if !ok {
		return 0, false
	}
	sum := 0
	for _, f := range fields {
		sum += FieldCount(t, f)
	}
	return float64(sum) / float64(len(fields)), true
}
