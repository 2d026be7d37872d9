package httpapi

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"unsafe"

	"repro/internal/lru"
	"repro/internal/obs"
)

// resultCache memoizes discovery responses keyed by a fingerprint of the
// document and every option that can change the answer. Cached values are
// the encoded discover bodies (see encodeDiscover), immutable once built
// and far smaller than a core.Result (no tag tree retained), so a hit
// shares them across concurrent requests and costs one header and one
// write.
//
// It also deduplicates in-flight computations (singleflight): while one
// request is computing a key, identical requests join its inflightCall and
// wait for the shared result instead of running the pipeline again.
// The cache lives in memory only: a restarted node starts it empty and is
// brought back warm by its wrapper store (Config.Templates), which answers
// every document of a known shape without running the heuristics.
type resultCache struct {
	c       *lru.Cache[[sha256.Size]byte, []byte]
	metrics *obs.Registry

	mu       sync.Mutex
	inflight map[[sha256.Size]byte]*inflightCall
}

// inflightCall is one in-progress computation that followers wait on. done
// is closed exactly once, after body and err are set; followers must only
// read them after <-done.
type inflightCall struct {
	done chan struct{}
	body []byte
	err  *apiError
}

// newResultCache returns a cache holding up to size responses, or nil when
// size is not positive (caching disabled). Hit/miss/eviction counters and a
// resident-entry gauge are filed under boundary_cache_* in metrics.
func newResultCache(size int, metrics *obs.Registry) *resultCache {
	if size <= 0 {
		return nil
	}
	return &resultCache{
		c:        lru.New[[sha256.Size]byte, []byte](size),
		metrics:  metrics,
		inflight: make(map[[sha256.Size]byte]*inflightCall),
	}
}

// RequestFingerprint fingerprints one discover request: parse mode ("html"
// or "xml"), document bytes, the ontology argument verbatim (builtin name or
// DSL source), and the separator-list override. Fields are length-prefixed so
// concatenations cannot collide.
//
// It is both the result-cache key and the cluster router's consistent-hash
// routing key: because the two agree, every request for a given (document,
// options) pair lands on the same replica, whose LRU cache therefore stays
// hot for exactly its key range.
func RequestFingerprint(mode, doc, ontologySrc string, separatorList []string) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	writeField := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		// A view, not a copy: the hash only reads it, and a document is
		// too large to copy per request.
		h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	}
	writeField(mode)
	writeField(doc)
	writeField(ontologySrc)
	for _, s := range separatorList {
		writeField(s)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// get returns the cached body for key, counting the hit or miss. A nil
// cache misses everything and counts nothing.
func (rc *resultCache) get(key [sha256.Size]byte) ([]byte, bool) {
	if rc == nil {
		return nil, false
	}
	body, ok := rc.c.Get(key)
	if ok {
		rc.metrics.Counter("boundary_cache_hits_total",
			"Discovery requests served from the result cache.").Inc()
	} else {
		rc.metrics.Counter("boundary_cache_misses_total",
			"Discovery requests that missed the result cache.").Inc()
	}
	return body, ok
}

// put stores a body, counting any eviction and updating the entry gauge.
func (rc *resultCache) put(key [sha256.Size]byte, body []byte) {
	if rc == nil {
		return
	}
	// Capped so that no holder can append to the shared bytes in place.
	if rc.c.Add(key, body[:len(body):len(body)]) {
		rc.metrics.Counter("boundary_cache_evictions_total",
			"Result-cache entries evicted to make room.").Inc()
	}
	rc.metrics.Gauge("boundary_cache_entries",
		"Result-cache entries currently resident.").Set(float64(rc.c.Len()))
}

// join registers interest in key's computation. The first caller becomes the
// leader (leader == true) and must eventually call complete with the same
// call; later callers receive the leader's call and wait on call.done.
func (rc *resultCache) join(key [sha256.Size]byte) (call *inflightCall, leader bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if c, ok := rc.inflight[key]; ok {
		return c, false
	}
	c := &inflightCall{done: make(chan struct{})}
	rc.inflight[key] = c
	return c, true
}

// complete publishes the leader's outcome to followers and retires the
// in-flight entry. Successful, non-degraded bodies are cached; degraded
// ones are not — a later retry with all heuristics healthy should get the
// chance to compute (and then cache) the full answer.
func (rc *resultCache) complete(key [sha256.Size]byte, call *inflightCall, body []byte, degraded bool, err *apiError) {
	if err == nil && body != nil && !degraded {
		rc.put(key, body)
	}
	rc.mu.Lock()
	delete(rc.inflight, key)
	rc.mu.Unlock()
	call.body, call.err = body, err
	close(call.done)
}
