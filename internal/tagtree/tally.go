package tagtree

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/htmlparse"
)

// Scratch is per-document working memory for analyses of a parsed tree:
// the heuristic layer's statistics pass takes its tally, counts, intervals
// and rank buffers from it. A tree parsed on a pooled arena lends the
// arena's scratch, reused by every later parse and trimmed to the arena's
// retention bounds on Release, so what is carved from it is valid only as
// long as the tree. Any other tree lends a fresh Scratch backed by the heap.
// Like the arena, a Scratch is single-goroutine.
type Scratch struct {
	// Tally is for one analysis at a time: each Resets it before use.
	Tally Tally

	i32 []int32
	f64 []float64
}

// Scratch returns the tree's analysis scratch.
func (t *Tree) Scratch() *Scratch {
	if t.scratch != nil {
		return t.scratch
	}
	return new(Scratch)
}

// Int32s carves a zeroed slice of n int32s from the scratch. No later
// carve overlaps it before the arena's next parse.
func (s *Scratch) Int32s(n int) []int32 { return carve(&s.i32, n) }

// Float64s is Int32s for float64s.
func (s *Scratch) Float64s(n int) []float64 { return carve(&s.f64, n) }

// carve bump-allocates n zeroed elements from the slab. A slab too small
// is replaced by a larger one; what was carved from the old one stays
// valid, and the next parse reuses the larger.
func carve[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(2*cap(*slab), n, 256))
	}
	l := len(*slab)
	*slab = (*slab)[:l+n]
	out := (*slab)[l : l+n : l+n]
	clear(out)
	return out
}

// reset readies the scratch for a new parse.
func (s *Scratch) reset() {
	s.i32, s.f64 = s.i32[:0], s.f64[:0]
}

// scrub drops document references and capacity beyond the retention
// bounds.
func (s *Scratch) scrub() {
	s.Tally.Names = scrubSlab(s.Tally.Names)
	s.Tally.Counts = trimSlab(s.Tally.Counts)
	s.Tally.slot = trimSlab(s.Tally.slot)
	s.Tally.order = trimSlab(s.Tally.order)
	s.i32 = trimSlab(s.i32)
	s.f64 = trimSlab(s.f64)
}

// Tally counts start-tags by atom: Names and Counts list each distinct tag
// once, in order of first appearance. The zero value is ready to use, and
// Reset empties it for reuse without freeing its storage.
type Tally struct {
	Names  []string
	Counts []int32

	slot   []int32 // atom → 1 + the tag's index; 0 when not seen
	byName bool    // a tag was added by name: a node with no atom outside the built-in table
	order  []int32 // Candidates' sort scratch
}

// Reset empties the tally.
func (t *Tally) Reset() {
	clear(t.slot)
	clear(t.Names)
	t.Names, t.Counts, t.byName = t.Names[:0], t.Counts[:0], false
}

// Add counts one start-tag and returns the tag's index in Names. A node
// with no atom resolves its atom by name, so a tree built by hand tallies
// like a parsed one.
func (t *Tally) Add(n *Node) int {
	a := n.Atom
	if a == 0 {
		if a = htmlparse.Lookup(n.Name); a == 0 {
			k := t.Index(n.Name)
			if k < 0 {
				k = t.push(n.Name)
			}
			t.byName = true
			t.Counts[k]++
			return k
		}
	}
	if int(a) >= len(t.slot) {
		t.slot = append(t.slot, make([]int32, int(a)+1-len(t.slot)+int(htmlparse.NumBuiltinAtoms))...)
	}
	k := int(t.slot[a]) - 1
	if k < 0 {
		if t.byName {
			k = t.Index(n.Name)
		}
		if k < 0 {
			k = t.push(n.Name)
		}
		t.slot[a] = int32(k) + 1
	}
	t.Counts[k]++
	return k
}

// Index returns the index in Names of the tag named name, or -1.
func (t *Tally) Index(name string) int {
	for k, s := range t.Names {
		if s == name {
			return k
		}
	}
	return -1
}

func (t *Tally) push(name string) int {
	if t.Names == nil {
		// A fresh tally: most subtrees hold a few distinct tags.
		t.Names, t.Counts = make([]string, 0, 16), make([]int32, 0, 16)
	}
	t.Names = append(t.Names, name)
	t.Counts = append(t.Counts, 0)
	return len(t.Names) - 1
}

// Candidates applies Section 3's rule to the tally: a tag is a candidate
// separator when its count is at least threshold × total, where total is
// the number of start-tags in the subtree. The result is sorted by
// descending count, ties broken by name, and has heap lifetime. A non-nil
// candOf (one entry per tag) receives each tag's index in the result, or
// -1 for an irrelevant tag.
func (t *Tally) Candidates(total int, threshold float64, candOf []int32) []Candidate {
	cutoff := threshold * float64(total)
	if cap(t.order) < len(t.Counts) {
		t.order = make([]int32, 0, cap(t.Counts))
	}
	t.order = t.order[:0]
	for k, c := range t.Counts {
		if candOf != nil {
			candOf[k] = -1
		}
		if float64(c) >= cutoff {
			t.order = append(t.order, int32(k))
		}
	}
	slices.SortFunc(t.order, func(x, y int32) int {
		if c := cmp.Compare(t.Counts[y], t.Counts[x]); c != 0 {
			return c
		}
		return strings.Compare(t.Names[x], t.Names[y])
	})
	out := make([]Candidate, len(t.order))
	for i, k := range t.order {
		out[i] = Candidate{Name: t.Names[k], Count: int(t.Counts[k])}
		if candOf != nil {
			candOf[k] = int32(i)
		}
	}
	return out
}

// tallyOf tallies the start-tags of the subtree rooted at n, excluding n.
func tallyOf(n *Node) *Tally {
	t := new(Tally)
	n.Walk(func(m *Node) bool {
		if m != n {
			t.Add(m)
		}
		return true
	})
	return t
}
