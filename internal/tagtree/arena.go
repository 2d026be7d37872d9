package tagtree

import (
	"context"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/htmlparse"
)

// Arena is the per-request scratch for the byte-level hot path: the
// tokenizer slabs (via htmlparse.Arena), the normalized token buffer, node
// blocks, and the children/chunk/event slabs all live here and are reused
// across parses instead of being garbage-collected per document. Acquire one
// with AcquireArena, pass it to ParseArenaContext (or core.Options.Arena),
// and Release it when the request's results have been copied out. Passing a
// nil arena parses into a one-shot arena that is never pooled, so the tree
// has ordinary heap lifetime; Parse and ParseContext do exactly that.
//
// Ownership rules (see docs/PERFORMANCE.md):
//
//   - A Tree built on an arena — its nodes, events, chunks, and attribute
//     windows — is valid only until the arena's next parse or Release.
//     Anything that outlives the request (wire responses, template-store
//     entries, caches) must deep-copy first; every serving layer in this
//     repo already does.
//   - Tree strings alias the input document; the document must stay
//     immutable while the Tree is alive.
//   - An Arena is single-goroutine; give each worker its own.
//
// Release is panic-safe by construction: it is idempotent, so callers hang
// it on a defer and a mid-parse panic (see the htmlparse/arena fault hook)
// still returns the entry to the pool as the stack unwinds.
type Arena struct {
	tok *htmlparse.Arena

	norm  []htmlparse.Token // normalized (balanced) token stream
	stack []string          // normalize's open-element stack

	// Node storage: fixed-size blocks so node pointers stay stable while the
	// arena grows. Node k of a parse lives at blocks[k>>blockShift][k&blockMask];
	// index 0 is the synthetic root.
	blocks    [][]Node
	highNodes int // high-water node count since last scrub, for Release

	// Per-parse slabs. children and chunks are carved into per-node windows
	// between the counting and building passes; events backs Tree.Events.
	children []*Node
	chunks   []Chunk
	events   []Event

	// Counting-pass scratch: childOffs/chunkOffs hold per-node counts during
	// pass 0 and prefix-sum offsets during pass 1 (entry i+1 is node i's
	// window end); seqStack tracks the open node sequence numbers.
	childOffs []int
	chunkOffs []int
	seqStack  []int

	tree     Tree
	released bool
	// oneShot marks an unpooled arena built for a single nil-arena parse:
	// its node storage is sized to the document, and its tree is allocated
	// apart from the arena so the slabs the tree does not reference can be
	// collected.
	oneShot bool
}

const (
	nodeBlockShift = 9
	nodeBlockSize  = 1 << nodeBlockShift // 512 nodes per block
	nodeBlockMask  = nodeBlockSize - 1
)

// Retention bounds: what one pooled arena may keep between requests. A
// pathological document must not pin its peak footprint in the pool forever.
const (
	maxRetainedNodes  = 1 << 15
	maxRetainedTokens = 1 << 16
	maxRetainedSlab   = 1 << 16
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
	if cap(a.norm) > maxRetainedTokens {
		a.norm = nil
	} else {
		norm := a.norm[:cap(a.norm)]
		for i := range norm {
			norm[i] = htmlparse.Token{}
		}
		a.norm = a.norm[:0]
	}
	if cap(a.stack) > maxRetainedSlab {
		a.stack = nil
	} else {
		stack := a.stack[:cap(a.stack)]
		for i := range stack {
			stack[i] = ""
		}
		a.stack = a.stack[:0]
	}
	if len(a.blocks)*nodeBlockSize > maxRetainedNodes {
		a.blocks = nil
	} else {
		for k := 0; k < a.highNodes; k++ {
			a.blocks[k>>nodeBlockShift][k&nodeBlockMask] = Node{}
		}
	}
	a.highNodes = 0
	if cap(a.children) > maxRetainedSlab {
		a.children = nil
	} else {
		ch := a.children[:cap(a.children)]
		for i := range ch {
			ch[i] = nil
		}
		a.children = a.children[:0]
	}
	if cap(a.chunks) > maxRetainedSlab {
		a.chunks = nil
	} else {
		ck := a.chunks[:cap(a.chunks)]
		for i := range ck {
			ck[i] = Chunk{}
		}
		a.chunks = a.chunks[:0]
	}
	if cap(a.events) > maxRetainedSlab {
		a.events = nil
	} else {
		ev := a.events[:cap(a.events)]
		for i := range ev {
			ev[i] = Event{}
		}
		a.events = a.events[:0]
	}
	a.childOffs = a.childOffs[:0]
	a.chunkOffs = a.chunkOffs[:0]
	a.seqStack = a.seqStack[:0]
	a.tree = Tree{}
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
// HTML document with cancellation and resource limits (see ParseContext).
// Tokens, nodes, and event buffers come from the arena, and a warm arena
// parses without allocating. A nil arena parses into a fresh one-shot arena
// that is never pooled, so the tree has ordinary heap lifetime.
//
// The htmlparse/arena fault hook fires once per parse, after the tokenizer
// has filled the arena's slabs and before normalization, so a chaos test's
// panic there proves a dirty arena still repools.
func ParseArenaContext(ctx context.Context, doc string, lim Limits, a *Arena, faults *faultinject.Set) (*Tree, error) {
	if err := htmlparse.CheckSize(doc, lim.MaxBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a == nil {
		a = newOneShotArena()
	}
	toks := a.tok.TokenizeHTML(doc)
	if err := faults.FireCtx(ctx, "htmlparse/arena"); err != nil {
		return nil, err
	}
	a.norm, a.stack = normalizeHTMLInto(toks, capTo(a.norm, normCap(toks)), a.stack[:0])
	return a.build(ctx, a.norm, htmlparse.IsVoid, lim)
}

// ParseXMLArenaContext is the XML counterpart of ParseArenaContext.
func ParseXMLArenaContext(ctx context.Context, doc string, lim Limits, a *Arena, faults *faultinject.Set) (*Tree, error) {
	if err := htmlparse.CheckSize(doc, lim.MaxBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a == nil {
		a = newOneShotArena()
	}
	toks := a.tok.TokenizeXML(doc)
	if err := faults.FireCtx(ctx, "htmlparse/arena"); err != nil {
		return nil, err
	}
	a.norm, a.stack = normalizeXMLInto(toks, capTo(a.norm, normCap(toks)), a.stack[:0])
	return a.build(ctx, a.norm, neverVoid, lim)
}

var neverVoid = func(string) bool { return false }

// normCap sizes the normalized stream up front: normalization drops
// comments and inserts missing end-tags, and a quarter on top of the raw
// token count covers the synthetic ends of typical tag soup.
func normCap(toks []htmlparse.Token) int { return len(toks) + len(toks)/4 }

// buildCheckEvery is how many tokens the build loop processes between
// context checks — rare enough to stay off the profile, frequent enough
// that cancellation lands within microseconds on real documents.
const buildCheckEvery = 1024

// build constructs the tree from an already-balanced token stream, one node
// per region (Appendix A). isVoid reports element names that never have
// end-tags (HTML's void set; always false for XML, where only explicit
// self-closing counts). Pass 0 counts nodes, per-node children/chunks, and
// events, honoring ctx and enforcing lim's node and depth bounds as it goes,
// so a pathological document fails before any tree memory is laid out; the
// counts become carved sub-slices of the shared slabs; and pass 1 re-walks
// the tokens filling everything in within capacity — zero allocations once
// the arena is warm.
func (a *Arena) build(ctx context.Context, norm []htmlparse.Token, isVoid func(string) bool, lim Limits) (*Tree, error) {
	// Pass 0: counts. seqStack holds open node sequence numbers (root = 0);
	// childOffs/chunkOffs get one entry per node, indexed by sequence.
	a.seqStack = append(a.seqStack[:0], 0)
	a.childOffs = append(a.childOffs[:0], 0)
	a.chunkOffs = append(a.chunkOffs[:0], 0)
	nodes, depth, events := 0, 0, 0
	for i, tok := range norm {
		if i%buildCheckEvery == buildCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		switch tok.Type {
		case htmlparse.Text:
			if tok.Data == "" {
				continue
			}
			a.chunkOffs[a.seqStack[len(a.seqStack)-1]]++
			events++

		case htmlparse.StartTag:
			nodes++
			if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
				return nil, errTooManyNodes(lim.MaxNodes)
			}
			a.childOffs[a.seqStack[len(a.seqStack)-1]]++
			a.childOffs = append(a.childOffs, 0)
			a.chunkOffs = append(a.chunkOffs, 0)
			events++
			if tok.SelfClosing || isVoid(tok.Name) {
				continue
			}
			depth++
			if lim.MaxDepth > 0 && depth > lim.MaxDepth {
				return nil, errTooDeep(lim.MaxDepth)
			}
			a.seqStack = append(a.seqStack, nodes)

		case htmlparse.EndTag:
			if len(a.seqStack) == 1 {
				continue
			}
			events++
			a.seqStack = a.seqStack[:len(a.seqStack)-1]
			depth--
		}
	}

	// Prefix sums: childOffs[s]/chunkOffs[s] become node s's window start;
	// the appended sentinel makes entry s+1 its end.
	coff, koff := 0, 0
	for s := 0; s <= nodes; s++ {
		c := a.childOffs[s]
		a.childOffs[s] = coff
		coff += c
		k := a.chunkOffs[s]
		a.chunkOffs[s] = koff
		koff += k
	}
	a.childOffs = append(a.childOffs, coff)
	a.chunkOffs = append(a.chunkOffs, koff)

	a.ensureNodes(nodes + 1)
	if nodes+1 > a.highNodes {
		a.highNodes = nodes + 1
	}
	a.children = capTo(a.children, coff)
	a.chunks = capTo(a.chunks, koff)
	a.events = capTo(a.events, events)

	// Pass 1: fill the carved windows in place.
	t := &a.tree
	if a.oneShot {
		t = new(Tree)
	}
	root := a.node(0)
	*root = Node{Name: "#document"}
	root.Children = a.carveChildren(0)
	root.Chunks = a.carveChunks(0)
	t.Root = root
	t.Events = a.events
	cur, seq := root, 0
	for _, tok := range norm {
		switch tok.Type {
		case htmlparse.Text:
			if tok.Data == "" {
				continue
			}
			cur.Chunks = append(cur.Chunks, Chunk{Text: tok.Data, Pos: tok.Pos})
			t.Events = append(t.Events, Event{Kind: EventText, Text: tok.Data, Pos: tok.Pos})

		case htmlparse.StartTag:
			seq++
			n := a.node(seq)
			*n = Node{
				Name:       tok.Name,
				Attrs:      tok.Attrs,
				Parent:     cur,
				StartPos:   tok.Pos,
				EndPos:     tok.End,
				firstEvent: len(t.Events),
			}
			n.Children = a.carveChildren(seq)
			n.Chunks = a.carveChunks(seq)
			cur.Children = append(cur.Children, n)
			t.Events = append(t.Events, Event{Kind: EventStart, Node: n, Pos: tok.Pos})
			if tok.SelfClosing || isVoid(tok.Name) {
				n.lastEvent = len(t.Events)
				continue
			}
			cur = n

		case htmlparse.EndTag:
			// Normalization guarantees balance, so this matches cur.
			if cur == root {
				continue
			}
			t.Events = append(t.Events, Event{Kind: EventEnd, Node: cur, Pos: tok.Pos})
			cur.EndPos = tok.End
			cur.lastEvent = len(t.Events)
			cur = cur.Parent
		}
	}
	root.firstEvent = 0
	root.lastEvent = len(t.Events)
	if n := len(norm); n > 0 {
		root.EndPos = norm[n-1].End
	}
	countSubtreeTags(root)
	return t, nil
}

// carveChildren returns node seq's empty children window inside the shared
// slab; appends stay within its capacity.
func (a *Arena) carveChildren(seq int) []*Node {
	s, e := a.childOffs[seq], a.childOffs[seq+1]
	return a.children[s:s:e]
}

// carveChunks is carveChildren for text chunks.
func (a *Arena) carveChunks(seq int) []Chunk {
	s, e := a.chunkOffs[seq], a.chunkOffs[seq+1]
	return a.chunks[s:s:e]
}
