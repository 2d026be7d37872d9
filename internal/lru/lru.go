// Package lru provides a small, concurrency-safe, fixed-capacity LRU cache.
// It is stdlib-only (container/list + a map) and generic over key and value,
// serving as the building block for the HTTP layer's discovery-result cache;
// metrics live with the caller so the cache itself stays dependency-free.
package lru

import (
	"container/list"
	"sync"
)

// entry is one key/value pair stored in the recency list.
type entry[K comparable, V any] struct {
	key   K
	value V
}

// Cache is a fixed-capacity least-recently-used cache. All methods are safe
// for concurrent use. The zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

// New returns an empty cache holding at most capacity entries. New panics if
// capacity is not positive — callers model "cache off" by not constructing
// one, not with a zero-capacity instance.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).value, true
	}
	var zero V
	return zero, false
}

// Add inserts or refreshes key, marking it most recently used, and reports
// whether the insert pushed the least-recently-used entry out to make room.
func (c *Cache[K, V]) Add(key K, value V) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).value = value
		return false
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, value: value})
	if c.ll.Len() <= c.cap {
		return false
	}
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	delete(c.items, oldest.Value.(*entry[K, V]).key)
	return true
}

// Len returns the number of entries currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Remove deletes key, reporting whether it was present.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	return true
}

// Values returns the cached values from least to most recently used — the
// order that, replayed through Add, reproduces the cache's recency state.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*entry[K, V]).value)
	}
	return out
}
