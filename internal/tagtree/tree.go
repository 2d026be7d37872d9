package tagtree

import (
	"context"
	"strings"

	"repro/internal/htmlparse"
)

// EventKind discriminates the entries of a Tree's linearized event stream.
type EventKind int

// Event kinds.
const (
	// EventStart marks the opening of a node's region.
	EventStart EventKind = iota
	// EventEnd marks the close of a node's region. Void elements emit no
	// EventEnd.
	EventEnd
	// EventText is a run of plain text.
	EventText
)

// Event is one entry of the document-order event stream. The stream lets
// heuristics scan any subtree linearly — the basis of the paper's O(n)
// claims.
type Event struct {
	Kind EventKind
	// Node is the region's node for EventStart and EventEnd.
	Node *Node
	// Text is the decoded character data for EventText.
	Text string
	// Pos is the byte offset in the original document.
	Pos int
}

// Node is one region of the document: a start-tag, the plain text directly
// inside its region, and its nested regions as children.
type Node struct {
	// Name is the lowercased tag name; the synthetic document root is
	// named "#document".
	Name string
	// Atom is Name's atom, numbered per parse (see htmlparse.Atom). The
	// root and a node built by hand carry the zero Atom; Tally resolves
	// those by name.
	Atom htmlparse.Atom
	// Attrs are the start-tag's attributes.
	Attrs []htmlparse.Attr
	// Parent is nil for the document root.
	Parent *Node
	// Children are the nested regions in document order.
	Children []*Node
	// Chunks is the plain text lying directly inside this region (not
	// inside any child), in document order.
	Chunks []Chunk
	// StartPos and EndPos delimit the region's byte range in the original
	// document.
	StartPos, EndPos int

	// firstEvent and lastEvent index into Tree.Events: the half-open range
	// [firstEvent, lastEvent) covers this node's EventStart through its
	// EventEnd (or just the EventStart for void elements).
	firstEvent, lastEvent int

	// subtreeTags is the number of start-tags in the subtree rooted here,
	// excluding this node itself.
	subtreeTags int
}

// Chunk is a run of plain text directly inside a region.
type Chunk struct {
	Text string
	Pos  int
}

// Tree is the paper's tag tree: the nested-region structure of a document
// plus a linearized event stream for single-pass heuristics.
type Tree struct {
	// Root is a synthetic "#document" node whose children are the
	// document's top-level regions (normally a single html node).
	Root *Node
	// Events is the full document-order event stream.
	Events []Event

	// textLens holds, aligned with Events, each text event's
	// whitespace-collapsed length (CollapsedLen of its Text), recorded as
	// the tree was built; tag events hold zero.
	textLens []int32

	// scratch is the pooled arena's analysis scratch; nil for a tree with
	// heap lifetime.
	scratch *Scratch
}

// Parse tokenizes, normalizes (Appendix A step 2), and builds the tag tree
// of an HTML document. It never fails: malformed input degrades gracefully.
func Parse(doc string) *Tree {
	return mustParse(ParseContext(context.Background(), doc, Limits{}))
}

// ParseContext is Parse with cancellation and resource limits: the build
// loop checks ctx periodically so a hung-up caller stops paying for the
// parse, and lim bounds document bytes, nesting depth, and node count with
// the sentinel errors of Limits. A zero lim and background ctx make it
// equivalent to Parse. It is ParseArenaContext on a one-shot arena, so the
// tree has ordinary heap lifetime.
func ParseContext(ctx context.Context, doc string, lim Limits) (*Tree, error) {
	return ParseArenaContext(ctx, doc, lim, nil, nil)
}

// mustParse unwraps a parse that cannot fail: a background context never
// cancels and zero Limits never trip.
func mustParse(t *Tree, err error) *Tree {
	if err != nil {
		panic("tagtree: parse failed without limits: " + err.Error())
	}
	return t
}

// FanOut returns the node's number of immediate children.
func (n *Node) FanOut() int { return len(n.Children) }

// SubtreeTagCount returns the number of start-tags in the subtree rooted at
// n, excluding n itself.
func (n *Node) SubtreeTagCount() int { return n.subtreeTags }

// EventRange returns the half-open [first, last) index range of n's events
// in the owning Tree's event stream.
func (n *Node) EventRange() (first, last int) { return n.firstEvent, n.lastEvent }

// SubtreeEvents returns the slice of the tree's event stream covering the
// subtree rooted at n (including n's own start event).
func (t *Tree) SubtreeEvents(n *Node) []Event {
	return t.Events[n.firstEvent:n.lastEvent]
}

// SubtreeTextLens returns, aligned with SubtreeEvents(n), the collapsed
// length of each text event's text (zero for tag events), as recorded when
// the tree was built. It is a window of the tree's own storage: no scan and
// no allocation. A tree assembled by hand records no lengths and returns
// nil.
func (t *Tree) SubtreeTextLens(n *Node) []int32 {
	if t.textLens == nil {
		return nil
	}
	return t.textLens[n.firstEvent:n.lastEvent]
}

// Text returns all plain text in the subtree rooted at n, in document
// order, with chunks joined by single spaces and whitespace collapsed.
func (n *Node) Text() string {
	var parts []string
	n.walkText(&parts)
	return strings.Join(parts, " ")
}

func (n *Node) walkText(parts *[]string) {
	// Merge chunks and children in document order by position.
	ci, ki := 0, 0
	for ci < len(n.Children) || ki < len(n.Chunks) {
		if ki >= len(n.Chunks) || (ci < len(n.Children) && n.Children[ci].StartPos < n.Chunks[ki].Pos) {
			n.Children[ci].walkText(parts)
			ci++
		} else {
			if s := CollapseSpace(n.Chunks[ki].Text); s != "" {
				*parts = append(*parts, s)
			}
			ki++
		}
	}
}

// CollapseSpace trims s and collapses interior whitespace runs to single
// spaces; it returns "" for whitespace-only input.
func CollapseSpace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := true // swallow leading whitespace
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v' {
			if !space {
				b.WriteByte(' ')
				space = true
			}
			continue
		}
		b.WriteByte(c)
		space = false
	}
	return strings.TrimRight(b.String(), " ")
}

// CollapsedLen returns len(CollapseSpace(s)) without allocating — the
// heuristics only need the collapsed length (or whether it is nonzero), and
// building the collapsed string for every text event dominated their
// allocation profile. The parser records it for every text event, so it
// runs over all of a document's text: the collapsed length is the count of
// non-space bytes plus one separator between each pair of words, and both
// counts are taken eight bytes at a time.
func CollapsedLen(s string) int {
	nonSpace, words := 0, 0
	prev := uint64(0x80) // the byte before s counts as space
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		// sp has a byte's high bit set exactly when the byte is ' ' or in
		// '\t'..'\r', the bytes asciiSpace flags; no carry crosses a byte.
		y := x ^ (' ' * lanes)
		sp := ^((y&low7 + low7) | y) & high
		a := x & low7
		sp |= (a + (0x80-'\t')*lanes) &^ (a + (0x80-'\r'-1)*lanes) &^ x & high
		non := ^sp & high
		starts := non & (sp<<8 | prev) // a word starts after a space
		// Multiplying a 0/1 per byte by lanes sums the bytes into the top one.
		nonSpace += int((non >> 7) * lanes >> 56)
		words += int((starts >> 7) * lanes >> 56)
		prev = sp >> 56
	}
	prevSpace := prev != 0
	for ; i < len(s); i++ {
		space := asciiSpace[s[i]]
		if !space {
			nonSpace++
			if prevSpace {
				words++
			}
		}
		prevSpace = space
	}
	if words == 0 {
		return 0
	}
	return nonSpace + words - 1
}

// SWAR masks for CollapsedLen: one bit per byte, the low seven bits of each
// byte, and the high bit of each byte.
const (
	lanes = 0x0101010101010101
	low7  = 0x7f * lanes
	high  = 0x80 * lanes
)

// asciiSpace flags the whitespace bytes CollapseSpace collapses.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '\f': true, '\v': true}

// Walk calls fn for every node in the subtree rooted at n (including n) in
// document order. Returning false from fn prunes that node's subtree.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Find returns the first node in document order (depth-first) within the
// subtree rooted at n whose tag name matches name, or nil.
func (n *Node) Find(name string) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if m != n && m.Name == name {
			found = m
			return false
		}
		return true
	})
	return found
}

// HighestFanOut returns the node with the most immediate children — the
// paper's conjectured location of the record group (Section 3). Ties go to
// the earlier node in document order. The synthetic document root is only
// eligible when the document has no element that wraps its content.
func (t *Tree) HighestFanOut() *Node {
	best := t.Root
	t.Root.Walk(func(n *Node) bool {
		if n == t.Root {
			return true
		}
		if n.FanOut() > best.FanOut() || best == t.Root && n.FanOut() == best.FanOut() {
			best = n
		}
		return true
	})
	return best
}
