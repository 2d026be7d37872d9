package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetAddBasics(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	if c.Add("a", 1) {
		t.Fatal("first Add evicted")
	}
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // b is now least recently used
	if !c.Add("c", 3) {
		t.Fatal("Add over capacity did not evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%s) = %d, %v; want %d", k, v, ok, want)
		}
	}
}

func TestAddRefreshesExistingKey(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if c.Add("a", 10) {
		t.Fatal("refreshing a resident key must not evict")
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refresh did not update value: %d", v)
	}
	c.Add("c", 3) // evicts b, not the refreshed a
	if _, ok := c.Get("a"); !ok {
		t.Fatal("refreshed key was evicted")
	}
}

func TestValuesReplayOrder(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // a becomes most recently used
	if vals := c.Values(); len(vals) != 2 || vals[0] != 2 || vals[1] != 1 {
		t.Fatalf("Values = %v, want [2 1] (LRU first)", vals)
	}
}

func TestNewPanicsOnNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int, int](0)
}

// TestConcurrentAccess hammers the cache from many goroutines; run with
// -race this verifies the locking discipline.
func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%100)
				c.Add(k, i)
				c.Get(k)
				c.Len()
			}
		}()
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity", c.Len())
	}
}
