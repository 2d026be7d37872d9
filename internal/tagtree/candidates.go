package tagtree

// DefaultCandidateThreshold is the paper's 10% rule: a start-tag appearing
// fewer than threshold × (total tags in the subtree) times is irrelevant.
const DefaultCandidateThreshold = 0.10

// Candidate is a start-tag eligible to be the record separator, with its
// appearance count inside the highest-fan-out subtree.
type Candidate struct {
	Name  string
	Count int
}

// TagCounts returns the number of appearances of each start-tag name in the
// subtree rooted at n, excluding n itself.
func TagCounts(n *Node) map[string]int {
	t := tallyOf(n)
	counts := make(map[string]int, len(t.Names))
	for k, name := range t.Names {
		counts[name] = int(t.Counts[k])
	}
	return counts
}

// Candidates partitions the start-tags of the subtree rooted at n into
// candidate separator tags and irrelevant tags, per Section 3: a tag is
// irrelevant when its appearance count is below threshold × (total number
// of tags in the subtree). Pass DefaultCandidateThreshold for the paper's
// 10% rule. The result is sorted by descending count, ties broken by name,
// so it is deterministic.
func Candidates(n *Node, threshold float64) []Candidate {
	return tallyOf(n).Candidates(n.SubtreeTagCount(), threshold, nil)
}

// Occurrences returns the byte offsets (in the original document) of every
// start-tag with the given name inside the subtree rooted at n, in document
// order. These are the partition points used to split the document into
// records once the separator tag is chosen.
func Occurrences(t *Tree, n *Node, name string) []int {
	var out []int
	for _, ev := range t.SubtreeEvents(n) {
		if ev.Kind == EventStart && ev.Node != n && ev.Node.Name == name {
			out = append(out, ev.Pos)
		}
	}
	return out
}
