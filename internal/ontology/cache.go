package ontology

import (
	"fmt"
	"sync"
)

// Cache memoizes Resolve per distinct source string, so a corpus or a
// service whose documents share one DSL ontology parses it, and compiles
// its rules' scan plans, once. Both successes and failures are memoized.
// With MaxBytes positive, the memoized sources' lengths sum to at most
// MaxBytes: admitting a source drops arbitrary entries to make room, and a
// longer source is resolved without being kept. The zero value is an
// unbounded cache. A Cache is safe for concurrent use and must not be
// copied after first use.
type Cache struct {
	MaxBytes int

	mu    sync.Mutex
	m     map[string]cacheEntry
	bytes int
}

type cacheEntry struct {
	ont *Ontology
	err error
}

// Resolve turns an ontology field as the request surfaces take it into an
// ontology: empty means nil (OM declines), a built-in name selects that
// ontology, and anything else is parsed as DSL source.
func (c *Cache) Resolve(src string) (*Ontology, error) {
	if src == "" {
		return nil, nil
	}
	if ont := Builtin(src); ont != nil {
		return ont, nil
	}
	c.mu.Lock()
	e, ok := c.m[src]
	c.mu.Unlock()
	if ok {
		return e.ont, e.err
	}
	// Parse outside the lock so one large source does not stall every
	// other caller; two concurrent misses on one source both parse it.
	ont, err := Parse(src)
	if err != nil {
		err = fmt.Errorf("ontology is neither built-in (%v) nor valid DSL: %w", BuiltinNames(), err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[src]; ok {
		return e.ont, e.err
	}
	if c.MaxBytes > 0 && len(src) > c.MaxBytes {
		return ont, err
	}
	if c.m == nil {
		c.m = make(map[string]cacheEntry)
	}
	for k := range c.m {
		if c.MaxBytes <= 0 || c.bytes+len(src) <= c.MaxBytes {
			break
		}
		delete(c.m, k)
		c.bytes -= len(k)
	}
	c.m[src] = cacheEntry{ont, err}
	c.bytes += len(src)
	return ont, err
}
