package ontology

import (
	"strings"
	"testing"
)

func TestCacheResolve(t *testing.T) {
	var c Cache
	if ont, err := c.Resolve(""); ont != nil || err != nil {
		t.Errorf("Resolve(\"\") = %v, %v; want nil, nil", ont, err)
	}
	if ont, err := c.Resolve("obituary"); err != nil || ont != Builtin("obituary") {
		t.Errorf("Resolve(obituary) = %v, %v; want the builtin", ont, err)
	}
	a, err := c.Resolve(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := c.Resolve(tinySrc); b != a {
		t.Error("a repeated DSL source parsed again, want the memoized ontology")
	}
	_, err1 := c.Resolve("ontology")
	_, err2 := c.Resolve("ontology")
	if err1 == nil || err1 != err2 || !strings.Contains(err1.Error(), "neither built-in") {
		t.Errorf("bad source: errors %v and %v, want one memoized resolution error", err1, err2)
	}
}

func TestCacheMaxBytes(t *testing.T) {
	other := tinySrc + "\n"
	c := Cache{MaxBytes: len(tinySrc)}
	a, _ := c.Resolve(tinySrc)
	if b, _ := c.Resolve(tinySrc); b != a {
		t.Error("a source within the budget was not kept")
	}
	// other is one byte longer than tinySrc: over the budget, never kept,
	// and admitting it evicts nothing.
	x, _ := c.Resolve(other)
	if y, _ := c.Resolve(other); y == x {
		t.Error("a source over the budget was kept")
	}
	if b, _ := c.Resolve(tinySrc); b != a {
		t.Error("a source over the budget evicted one within it")
	}
	// Two sources that each fit but not together: the second evicts the
	// first.
	c = Cache{MaxBytes: len(other)}
	a, _ = c.Resolve(tinySrc)
	x, _ = c.Resolve(other)
	if y, _ := c.Resolve(other); y != x {
		t.Error("the newest source was not kept")
	}
	if b, _ := c.Resolve(tinySrc); b == a {
		t.Error("the cache holds more bytes than its budget")
	}
	if c.bytes > c.MaxBytes {
		t.Errorf("cache holds %d source bytes, budget %d", c.bytes, c.MaxBytes)
	}
}
