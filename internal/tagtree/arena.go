package tagtree

import (
	"context"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/htmlparse"
)

// Arena is the per-request scratch for the byte-level hot path: the
// streaming scanner (via htmlparse.Arena), the normalizer's open-element
// stack, node blocks, and the children/chunk/event slabs all live here and
// are reused across parses instead of being garbage-collected per document.
// Acquire one with AcquireArena, pass it to ParseArenaContext (or
// core.Options.Arena), and Release it when the request's results have been
// copied out. Passing a nil arena parses into a one-shot arena that is never
// pooled, so the tree has ordinary heap lifetime; Parse and ParseContext do
// exactly that.
//
// Ownership rules (see docs/PERFORMANCE.md):
//
//   - A Tree built on an arena — its nodes, events, chunks, text lengths,
//     attribute windows, and whatever analyses borrow from its Scratch — is
//     valid only until the arena's next parse or Release. Anything that
//     outlives the request (wire responses, template-store entries,
//     caches) must deep-copy first; every serving layer in this repo
//     already does.
//   - Tree strings alias the input document; the document must stay
//     immutable while the Tree is alive.
//   - An Arena is single-goroutine; give each worker its own.
//
// Release is panic-safe by construction: it is idempotent, so callers hang
// it on a defer and a mid-parse panic (see the htmlparse/arena fault hook)
// still returns the entry to the pool as the stack unwinds.
type Arena struct {
	tok  *htmlparse.Arena
	norm normalizer

	// Node storage: fixed-size blocks so node pointers stay stable while the
	// arena grows. Node k of a parse lives at blocks[k>>blockShift][k&blockMask];
	// index 0 is the synthetic root.
	blocks    [][]Node
	highNodes int // high-water node count since last scrub, for Release

	// Per-parse slabs. events and textLens back Tree.Events and the
	// recorded text lengths; children and chunks are carved into per-node
	// windows after the pass.
	children []*Node
	chunks   []Chunk
	events   []Event
	textLens []int32

	// Builder state. childCounts/chunkCounts hold per-node counts indexed by
	// node sequence number; pending holds the text chunks in document order
	// until they are scattered into their nodes' windows; seqStack holds the
	// open node sequence numbers (root = 0) and cur is the innermost open
	// node.
	childCounts []int32
	chunkCounts []int32
	pending     []pendingChunk
	seqStack    []int32
	cur         *Node
	nodes       int
	lastEnd     int
	lim         Limits

	scratch Scratch

	tree     Tree
	released bool
	// oneShot marks an unpooled arena built for a single nil-arena parse:
	// its storage is sized to the document by a counting pass, and its tree
	// is allocated apart from the arena.
	oneShot bool
}

// pendingChunk is a text chunk awaiting its owner's Chunks window.
type pendingChunk struct {
	Chunk
	owner int32
}

const (
	nodeBlockShift = 9
	nodeBlockSize  = 1 << nodeBlockShift // 512 nodes per block
	nodeBlockMask  = nodeBlockSize - 1
)

// Retention bounds: what one pooled arena may keep between requests. A
// pathological document must not pin its peak footprint in the pool forever.
const (
	maxRetainedNodes = 1 << 15
	maxRetainedSlab  = 1 << 16
)

var arenaPool = sync.Pool{New: func() any { return newArena() }}

func newArena() *Arena {
	return &Arena{tok: htmlparse.NewArena()}
}

// newOneShotArena returns an unpooled arena for a single nil-arena parse.
func newOneShotArena() *Arena {
	a := newArena()
	a.oneShot = true
	return a
}

// AcquireArena returns a ready arena from the shared pool.
func AcquireArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.released = false
	return a
}

// Release scrubs document references out of the arena and returns it to the
// pool. It is idempotent: the second and later calls do nothing, so it is
// safe (and intended) to call from a defer that may race a panic path.
func (a *Arena) Release() {
	if a == nil || a.released {
		return
	}
	a.released = true
	a.scrub()
	arenaPool.Put(a)
}

// scrub drops every reference into request documents and trims capacity
// beyond the retention bounds.
func (a *Arena) scrub() {
	a.tok.Trim()
	a.norm.stack = scrubSlab(a.norm.stack)
	a.norm.synth = htmlparse.Token{}
	if len(a.blocks)*nodeBlockSize > maxRetainedNodes {
		a.blocks = nil
	} else {
		for k := 0; k < a.highNodes; k++ {
			a.blocks[k>>nodeBlockShift][k&nodeBlockMask] = Node{}
		}
	}
	a.highNodes = 0
	a.children = scrubSlab(a.children)
	a.chunks = scrubSlab(a.chunks)
	a.events = scrubSlab(a.events)
	a.pending = scrubSlab(a.pending)
	a.textLens = trimSlab(a.textLens)
	a.childCounts = trimSlab(a.childCounts)
	a.chunkCounts = trimSlab(a.chunkCounts)
	a.seqStack = trimSlab(a.seqStack)
	a.scratch.scrub()
	a.cur = nil
	a.tree = Tree{}
}

// scrubSlab zeroes s up to its capacity and empties it, or drops it when
// its capacity exceeds the retention bound.
func scrubSlab[T any](s []T) []T {
	if cap(s) > maxRetainedSlab {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// trimSlab is scrubSlab for slabs that hold no references: nothing to zero.
func trimSlab[T any](s []T) []T {
	if cap(s) > maxRetainedSlab {
		return nil
	}
	return s[:0]
}

// node returns the arena slot for node sequence number k; ensureNodes must
// already cover it.
func (a *Arena) node(k int) *Node {
	return &a.blocks[k>>nodeBlockShift][k&nodeBlockMask]
}

// ensureNodes grows block storage to hold n nodes. A pooled arena adds whole
// blocks for later parses to reuse; a one-shot arena parses once, so its
// last block holds only the nodes this document needs.
func (a *Arena) ensureNodes(n int) {
	for have := len(a.blocks) * nodeBlockSize; have < n; have += nodeBlockSize {
		size := nodeBlockSize
		if a.oneShot {
			size = min(size, n-have)
		}
		a.blocks = append(a.blocks, make([]Node, size))
	}
}

// capTo returns s truncated to length 0 with capacity at least n.
func capTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// ParseArenaContext tokenizes, normalizes, and builds the tag tree of an
// HTML document in one pass, with cancellation and resource limits (see
// ParseContext): each token the scanner produces goes through the
// normalizer straight into the builder. Nodes and event buffers come from
// the arena, and a warm arena parses without allocating. A nil arena parses
// into a fresh one-shot arena that is never pooled, so the tree has ordinary
// heap lifetime.
//
// The htmlparse/arena fault hook fires once per parse, after the pass has
// written the arena's nodes and events and before the per-node windows are
// carved, so a chaos test's panic there proves a dirty arena still repools.
func ParseArenaContext(ctx context.Context, doc string, lim Limits, a *Arena, faults *faultinject.Set) (*Tree, error) {
	return parseDoc(ctx, doc, false, lim, a, faults)
}

// ParseXMLArenaContext is the XML counterpart of ParseArenaContext.
func ParseXMLArenaContext(ctx context.Context, doc string, lim Limits, a *Arena, faults *faultinject.Set) (*Tree, error) {
	return parseDoc(ctx, doc, true, lim, a, faults)
}

func parseDoc(ctx context.Context, doc string, xml bool, lim Limits, a *Arena, faults *faultinject.Set) (*Tree, error) {
	if err := htmlparse.CheckSize(doc, lim.MaxBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a == nil {
		a = newOneShotArena()
	}
	if a.oneShot {
		// Count first, so every slab the tree keeps is allocated once at
		// its final size.
		c := counter{lim: lim}
		if err := a.run(ctx, doc, xml, &c); err != nil {
			return nil, err
		}
		a.ensureNodes(c.nodes + 1)
		a.events = make([]Event, 0, c.events)
		a.textLens = make([]int32, 0, c.events)
		a.pending = make([]pendingChunk, 0, c.chunks)
		a.childCounts = make([]int32, 0, c.nodes+1)
		a.chunkCounts = make([]int32, 0, c.nodes+1)
	}
	a.begin(lim)
	err := a.run(ctx, doc, xml, a)
	// Release scrubs every node this pass wrote, even when it failed.
	a.highNodes = max(a.highNodes, a.nodes+1)
	if err != nil {
		return nil, err
	}
	if err := faults.FireCtx(ctx, "htmlparse/arena"); err != nil {
		return nil, err
	}
	return a.finish(), nil
}

// buildCheckEvery is how many tokens the parse loop processes between
// context checks — rare enough to stay off the profile, frequent enough
// that cancellation lands within microseconds on real documents.
const buildCheckEvery = 1024

// run scans doc and streams its balanced tokens into out, honoring ctx.
func (a *Arena) run(ctx context.Context, doc string, xml bool, out tokenSink) error {
	a.tok.Reset(doc, xml)
	a.norm.reset(xml)
	for i := 1; ; i++ {
		if i%buildCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		tok := a.tok.Next()
		if tok == nil {
			return a.norm.finish(out)
		}
		if err := a.norm.push(tok, out); err != nil {
			return err
		}
	}
}

// counter is the sink of a one-shot arena's counting pass. It enforces the
// same limits as the builder, in the same order, so a node bomb fails
// before any storage is sized to it.
type counter struct {
	lim                          Limits
	nodes, depth, events, chunks int
}

func (c *counter) emit(tok *htmlparse.Token, leaf bool) error {
	switch tok.Type {
	case htmlparse.Text:
		if tok.Data != "" {
			c.chunks++
			c.events++
		}
	case htmlparse.StartTag:
		c.nodes++
		if c.lim.MaxNodes > 0 && c.nodes > c.lim.MaxNodes {
			return errTooManyNodes(c.lim.MaxNodes)
		}
		c.events++
		if !leaf {
			c.depth++
			if c.lim.MaxDepth > 0 && c.depth > c.lim.MaxDepth {
				return errTooDeep(c.lim.MaxDepth)
			}
		}
	case htmlparse.EndTag:
		if c.depth > 0 {
			c.depth--
			c.events++
		}
	}
	return nil
}

// begin readies the builder state for a parse with the root open.
func (a *Arena) begin(lim Limits) {
	a.ensureNodes(1)
	root := a.node(0)
	*root = Node{Name: "#document"}
	a.cur, a.nodes, a.lastEnd, a.lim = root, 0, 0, lim
	a.events = a.events[:0]
	a.textLens = a.textLens[:0]
	a.pending = a.pending[:0]
	a.childCounts = append(a.childCounts[:0], 0)
	a.chunkCounts = append(a.chunkCounts[:0], 0)
	a.seqStack = append(a.seqStack[:0], 0)
}

// emit is the tree builder, one node per region (Appendix A): it takes the
// normalizer's balanced stream and writes nodes, events, each text event's
// collapsed length (while the text is still in cache), and per-node counts,
// enforcing lim's node and depth bounds as nodes open.
func (a *Arena) emit(tok *htmlparse.Token, leaf bool) error {
	a.lastEnd = tok.End
	switch tok.Type {
	case htmlparse.Text:
		if tok.Data == "" {
			return nil
		}
		owner := a.seqStack[len(a.seqStack)-1]
		a.chunkCounts[owner]++
		a.pending = append(a.pending, pendingChunk{Chunk{Text: tok.Data, Pos: tok.Pos}, owner})
		a.events = append(a.events, Event{Kind: EventText, Text: tok.Data, Pos: tok.Pos})
		a.textLens = append(a.textLens, int32(CollapsedLen(tok.Data)))

	case htmlparse.StartTag:
		if a.lim.MaxNodes > 0 && a.nodes == a.lim.MaxNodes {
			return errTooManyNodes(a.lim.MaxNodes)
		}
		a.nodes++
		a.childCounts[a.seqStack[len(a.seqStack)-1]]++
		a.childCounts = append(a.childCounts, 0)
		a.chunkCounts = append(a.chunkCounts, 0)
		if a.nodes >= len(a.blocks)*nodeBlockSize {
			a.ensureNodes(a.nodes + 1)
		}
		// Every field is written (Children and Chunks by finish); field
		// by field, since a composite literal is built aside and copied.
		n := a.node(a.nodes)
		n.Name, n.Atom, n.Attrs, n.Parent = tok.Name, atomOf(tok), tok.Attrs, a.cur
		n.StartPos, n.EndPos = tok.Pos, tok.End
		n.firstEvent, n.lastEvent, n.subtreeTags = len(a.events), 0, 0
		a.events = append(a.events, Event{Kind: EventStart, Node: n, Pos: tok.Pos})
		a.textLens = append(a.textLens, 0)
		if leaf {
			n.lastEvent = len(a.events)
			return nil
		}
		if a.lim.MaxDepth > 0 && len(a.seqStack) > a.lim.MaxDepth {
			return errTooDeep(a.lim.MaxDepth)
		}
		a.seqStack = append(a.seqStack, int32(a.nodes))
		a.cur = n

	case htmlparse.EndTag:
		// Normalization guarantees balance, so this matches cur.
		top := len(a.seqStack) - 1
		if top == 0 {
			return nil
		}
		n := a.cur
		a.events = append(a.events, Event{Kind: EventEnd, Node: n, Pos: tok.Pos})
		a.textLens = append(a.textLens, 0)
		n.EndPos = tok.End
		n.lastEvent = len(a.events)
		n.subtreeTags = a.nodes - int(a.seqStack[top])
		a.seqStack = a.seqStack[:top]
		a.cur = n.Parent
	}
	return nil
}

// finish closes the root and carves the per-node Children and Chunks
// windows out of the shared slabs from the per-node counts: one pass over
// the nodes, in document order, then one over the pending chunks.
func (a *Arena) finish() *Tree {
	root := a.node(0)
	root.lastEvent = len(a.events)
	root.subtreeTags = a.nodes
	root.EndPos = a.lastEnd
	a.children = capTo(a.children, a.nodes)
	a.chunks = capTo(a.chunks, len(a.pending))
	coff, koff := 0, 0
	for seq := 0; seq <= a.nodes; seq++ {
		n := a.node(seq)
		c, k := int(a.childCounts[seq]), int(a.chunkCounts[seq])
		n.Children = a.children[coff : coff : coff+c]
		n.Chunks = a.chunks[koff : koff : koff+k]
		coff += c
		koff += k
		if seq > 0 {
			n.Parent.Children = append(n.Parent.Children, n)
		}
	}
	for i := range a.pending {
		p := &a.pending[i]
		n := a.node(int(p.owner))
		n.Chunks = append(n.Chunks, p.Chunk)
	}
	a.cur = nil

	if a.oneShot {
		return &Tree{Root: root, Events: a.events, textLens: a.textLens}
	}
	a.scratch.reset()
	a.tree = Tree{Root: root, Events: a.events, textLens: a.textLens, scratch: &a.scratch}
	return &a.tree
}
