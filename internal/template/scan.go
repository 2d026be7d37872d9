package template

import (
	"crypto/sha256"
	"strings"
	"sync"

	"repro/internal/htmlparse"
)

// FingerprintDoc fingerprints a raw HTML document without building the tag
// tree: a single tag-only pass that skips text, entity decoding, and
// attribute materialization. The tag grammar comes from the htmlparse scan
// core (the same primitives the arena tokenizer runs on), and the balancing
// decisions read the tag-rule table tagtree's normalizer reads
// (Atom.Void, Atom.RawText, htmlparse.ImpliedClose) — only the
// orphan-end-tag and EOF bookkeeping is the scanner's. It returns exactly what
// FingerprintTree(tagtree.Parse(doc)) returns, at a small fraction of the
// cost — this is what lets a template hit undercut full discovery by ~50×.
func FingerprintDoc(doc string) Fingerprint {
	fp, _, _ := scanDoc(doc)
	return fp
}

// scanDoc is FingerprintDoc that also returns the depth and node count of
// doc's tag tree, counted the way tagtree's builder counts them against
// tagtree.Limits: depth is the deepest nesting of non-leaf elements, nodes
// every element, leaves included.
func scanDoc(doc string) (fp Fingerprint, depth, nodes int) {
	sc := scanPool.Get().(*docScanner)
	sc.reset()
	sc.scan(doc)
	fp = sc.fingerprint()
	depth, nodes = sc.depth, len(sc.elems)
	scanPool.Put(sc)
	return fp, depth, nodes
}

var scanPool = sync.Pool{New: func() any { return newDocScanner() }}

// shapeEvent packs one structural event: atom<<1 for an element opening,
// the constant eventClose for a region closing.
type shapeEvent int32

const eventClose shapeEvent = 1

func openEvent(a htmlparse.Atom) shapeEvent { return shapeEvent(a << 1) }

// elemRec is one completed element region: its event range (half-open) and
// its fan-out, collected so the highest-fan-out winner can be picked after
// the scan without building nodes.
type elemRec struct {
	enter, end int32
	fan        int32
}

type docScanner struct {
	events  []shapeEvent
	stack   []htmlparse.Atom // open elements, innermost last
	open    []int32          // enter-event index per open element
	fan     []int32          // child count per open element
	elems   []elemRec
	rootFan int32
	depth   int // deepest len(stack) reached

	nbuf []byte // lowercased tag-name scratch
	sbuf []byte // hash serialization scratch

	atoms htmlparse.AtomTable // names outside the built-in table, per scan
}

func newDocScanner() *docScanner {
	return &docScanner{
		events: make([]shapeEvent, 0, 256),
		stack:  make([]htmlparse.Atom, 0, 32),
		open:   make([]int32, 0, 32),
		fan:    make([]int32, 0, 32),
		elems:  make([]elemRec, 0, 128),
		nbuf:   make([]byte, 0, 16),
		sbuf:   make([]byte, 0, 1024),
	}
}

// maxRetained bounds the pooled buffers: a pathological document must not
// pin its peak allocation in the pool forever.
const maxRetained = 1 << 16

func (sc *docScanner) reset() {
	if cap(sc.events) > maxRetained {
		sc.events = make([]shapeEvent, 0, 256)
		sc.elems = make([]elemRec, 0, 128)
	}
	sc.events = sc.events[:0]
	sc.stack = sc.stack[:0]
	sc.open = sc.open[:0]
	sc.fan = sc.fan[:0]
	sc.elems = sc.elems[:0]
	sc.rootFan = 0
	sc.depth = 0
	sc.atoms.Reset()
}

// atom returns the atom of the raw tag name, lowercased as HTML does.
// intern numbers a name outside the built-in table on first sight;
// without it (an end-tag) such a name gets the zero Atom, which no open
// element carries.
func (sc *docScanner) atom(raw string, intern bool) htmlparse.Atom {
	if a := htmlparse.LookupFold(raw); a != 0 {
		return a
	}
	sc.nbuf = sc.nbuf[:0]
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		sc.nbuf = append(sc.nbuf, c)
	}
	if a := sc.atoms.Find(string(sc.nbuf)); a != 0 || !intern {
		return a
	}
	return sc.atoms.Intern(string(sc.nbuf))
}

// noteChild credits a new element to its parent's fan-out (or the synthetic
// root's when the stack is empty).
func (sc *docScanner) noteChild() {
	if n := len(sc.fan); n > 0 {
		sc.fan[n-1]++
	} else {
		sc.rootFan++
	}
}

func (sc *docScanner) push(a htmlparse.Atom) {
	sc.noteChild()
	sc.open = append(sc.open, int32(len(sc.events)))
	sc.stack = append(sc.stack, a)
	sc.depth = max(sc.depth, len(sc.stack))
	sc.fan = append(sc.fan, 0)
	sc.events = append(sc.events, openEvent(a))
}

// pop closes the innermost open element, recording its completed region.
func (sc *docScanner) pop() {
	top := len(sc.stack) - 1
	sc.events = append(sc.events, eventClose)
	sc.elems = append(sc.elems, elemRec{
		enter: sc.open[top],
		end:   int32(len(sc.events)),
		fan:   sc.fan[top],
	})
	sc.stack = sc.stack[:top]
	sc.open = sc.open[:top]
	sc.fan = sc.fan[:top]
}

// leaf records a childless region (void element or self-closing tag).
func (sc *docScanner) leaf(a htmlparse.Atom) {
	sc.noteChild()
	enter := int32(len(sc.events))
	sc.events = append(sc.events, openEvent(a), eventClose)
	sc.elems = append(sc.elems, elemRec{enter: enter, end: enter + 2})
}

// scan runs the tag-only pass over doc on the htmlparse scan core
// (MarkupStartsAt / ScanDeclarationSpans / ScanPISpans / ScanTagAttrs /
// RawTextEnd), so the grammar — what counts as markup, how comments and
// bogus comments terminate, how quoted attribute values hide '>', when a
// start tag is self-closing, and how raw-text content ends — is the
// tokenizer's own, not a replica. The balancing decisions are
// tagtree.Normalize's: voids and self-closing tags are leaves, arriving tags
// imply closings per htmlparse.ImpliedClose, orphan end-tags are dropped,
// and EOF closes everything.
func (sc *docScanner) scan(doc string) {
	i, n := 0, len(doc)
	for i < n {
		if doc[i] != '<' {
			j := strings.IndexByte(doc[i:], '<')
			if j < 0 {
				break
			}
			i += j
		}
		if !htmlparse.MarkupStartsAt(doc, i) {
			// A lone '<' that is not markup: character data.
			i++
			continue
		}
		switch doc[i+1] {
		case '!':
			_, _, i, _ = htmlparse.ScanDeclarationSpans(doc, i)
		case '?':
			_, _, i = htmlparse.ScanPISpans(doc, i)
		case '/':
			i = sc.endTag(doc, i)
		default:
			i = sc.startTag(doc, i)
		}
	}
	for len(sc.stack) > 0 {
		sc.pop()
	}
}

// skipPast returns the index just past the first b at or after from, or
// len(s) when absent (mirrors the tokenizer's indexFrom).
func skipPast(s string, from int, b byte) int {
	if i := strings.IndexByte(s[from:], b); i >= 0 {
		return from + i + 1
	}
	return len(s)
}

func (sc *docScanner) endTag(s string, i int) int {
	start := i + 2
	j := htmlparse.NameEnd(s, start)
	a := sc.atom(s[start:j], false)
	j = skipPast(s, j, '>')
	if a.Void() {
		return j // </br> and friends: orphan by definition.
	}
	match := -1
	for k := len(sc.stack) - 1; k >= 0 && a != 0; k-- {
		if sc.stack[k] == a {
			match = k
			break
		}
	}
	if match < 0 {
		return j // no corresponding start-tag: dropped.
	}
	for len(sc.stack) > match {
		sc.pop()
	}
	return j
}

func (sc *docScanner) startTag(s string, i int) int {
	start := i + 1
	j := htmlparse.NameEnd(s, start)
	a := sc.atom(s[start:j], true)
	// nil visit: the fingerprint only needs structure, so attribute spans are
	// scanned (for the quote-aware '>' rules) but never materialized.
	j, selfClosing := htmlparse.ScanTagAttrs(s, j, nil)

	if a.Void() {
		sc.leaf(a)
		return j
	}
	for len(sc.stack) > 0 && htmlparse.ImpliedClose(a, sc.stack[len(sc.stack)-1]) {
		sc.pop()
	}
	if selfClosing {
		sc.leaf(a)
		return j
	}
	sc.push(a)
	if a.RawText() {
		// Raw-text content runs to the first case-insensitive "</name" (no
		// delimiter check after the name, exactly like the tokenizer); the
		// end-tag itself is then parsed by the main loop.
		j = htmlparse.RawTextEnd(s, j, a.String())
	}
	return j
}

// fingerprint picks the highest-fan-out region (HighestFanOut's exact tie
// rules: the first element in document order whose fan-out reaches the
// maximum, the synthetic root only when no element matches its fan-out) and
// hashes its shape serialization.
func (sc *docScanner) fingerprint() Fingerprint {
	best := elemRec{fan: -1}
	for _, e := range sc.elems {
		if e.fan > best.fan {
			best = e
		} else if e.fan == best.fan && e.enter < best.enter {
			best = e
		}
	}
	buf := sc.sbuf[:0]
	if best.fan < sc.rootFan {
		// The synthetic root wins: its shape wraps every top-level event.
		buf = append(buf, shapeOpen)
		buf = append(buf, rootName...)
		buf = append(buf, shapeSep)
		buf = sc.appendEvents(buf, 0, int32(len(sc.events)))
		buf = append(buf, shapeClose)
	} else {
		buf = sc.appendEvents(buf, best.enter, best.end)
	}
	if cap(buf) <= maxRetained {
		sc.sbuf = buf
	}
	return sha256.Sum256(buf)
}

func (sc *docScanner) appendEvents(buf []byte, from, to int32) []byte {
	for _, ev := range sc.events[from:to] {
		if ev == eventClose {
			buf = append(buf, shapeClose)
			continue
		}
		buf = append(buf, shapeOpen)
		buf = append(buf, sc.atoms.Name(htmlparse.Atom(ev>>1))...)
		buf = append(buf, shapeSep)
	}
	return buf
}

// rootName matches the tagtree synthetic document root.
const rootName = "#document"
