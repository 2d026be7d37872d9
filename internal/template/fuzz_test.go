package template

import (
	"context"
	"errors"
	"testing"

	"repro/internal/tagtree"
)

// FuzzFingerprintDoc pins the load-bearing equivalence of the fast path: the
// specialized tag-only scanner must agree byte-for-byte with the reference
// tree walk on arbitrary input. Any divergence means a warm request could be
// served a wrapper learned for a differently-shaped page. The scanner's depth
// and node count must also be the parse's own limits verdict: the tree fits
// Limits of exactly that depth and node count, and one less refuses it, so a
// template hit is served only where the parse would have succeeded.
func FuzzFingerprintDoc(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><hr><hr><hr></body></html>",
		"<html><body><ul><li>a<li>b<li>c</ul></body></html>",
		"<table><tr><td>a<tr><td>b</table>",
		"<script>'</scr'+'ipt>'</script><p>a</p>",
		"<div a='<b>' b=\">\"><p>x</div>",
		"<!doctype html><!-- c --><p>a<p>b",
		"<br/><BR></br><x:y.z-w_v>t</x:y.z-w_v>",
		"<select><option>1<option>2</select>",
		"<p <div> </p x>",
		"<textarea></textarea\u00e9></textarea>",
		"<div><div><p>a<br><p>b</div><img/></div></div>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		fast := FingerprintDoc(doc)
		ref, _ := FingerprintTree(tagtree.Parse(doc))
		if fast != ref {
			t.Fatalf("scanner/tree fingerprint divergence on %q:\n  doc  %s\n  tree %s",
				doc, fast, ref)
		}
		if again := FingerprintDoc(doc); again != fast {
			t.Fatalf("FingerprintDoc not deterministic on %q", doc)
		}

		_, depth, nodes := scanDoc(doc)
		parse := func(lim tagtree.Limits) error {
			_, err := tagtree.ParseContext(context.Background(), doc, lim)
			return err
		}
		// A zero limit means none, so a count of 0 is checked as 1.
		if err := parse(tagtree.Limits{MaxDepth: max(depth, 1), MaxNodes: max(nodes, 1)}); err != nil {
			t.Fatalf("scanner counts depth %d, %d nodes on %q, but the parse refuses them: %v",
				depth, nodes, doc, err)
		}
		if depth > 1 {
			if err := parse(tagtree.Limits{MaxDepth: depth - 1}); !errors.Is(err, tagtree.ErrTooDeep) {
				t.Fatalf("scanner counts depth %d on %q, but the parse accepts depth %d: %v",
					depth, doc, depth-1, err)
			}
		}
		if nodes > 1 {
			if err := parse(tagtree.Limits{MaxNodes: nodes - 1}); !errors.Is(err, tagtree.ErrTooManyNodes) {
				t.Fatalf("scanner counts %d nodes on %q, but the parse accepts %d: %v",
					nodes, doc, nodes-1, err)
			}
		}
	})
}
