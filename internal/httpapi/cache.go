package httpapi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/journal"
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
// With a journal path the cache is durable: every put and capacity eviction
// is appended to an NDJSON journal (the same torn-tail-tolerant, compacting
// machinery behind the wrapper store), so a restarted replica replays its
// memory and serves its first requests warm instead of stampeding the
// heuristics. A journal line carries the cached body verbatim as its
// "resp" object, so the journaled round trip is byte-identical by
// construction.
type resultCache struct {
	c       *lru.Cache[[sha256.Size]byte, []byte]
	metrics *obs.Registry
	journal *journal.Journal // nil when memory-only

	mu       sync.Mutex
	inflight map[[sha256.Size]byte]*inflightCall
}

// cacheLine is the journaled wire form of one cached result:
// {"key":"<hex>","resp":<the body without its newline>}.
type cacheLine struct {
	Key  string          `json:"key"` // hex request fingerprint
	Resp json.RawMessage `json:"resp"`
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
// resident-entry gauge are filed under boundary_cache_* in metrics. A
// non-empty journalPath makes the cache durable: the journal is replayed
// into the cache before it sees traffic, and corruption before the final
// line refuses to open (wrapping journal.ErrCorrupt).
func newResultCache(size int, journalPath string, metrics *obs.Registry, faults *faultinject.Set) (*resultCache, error) {
	if size <= 0 {
		if journalPath != "" {
			return nil, errors.New("httpapi: a cache journal requires a result cache (CacheSize > 0)")
		}
		return nil, nil
	}
	rc := &resultCache{
		c:        lru.New[[sha256.Size]byte, []byte](size),
		metrics:  metrics,
		inflight: make(map[[sha256.Size]byte]*inflightCall),
	}
	if journalPath == "" {
		return rc, nil
	}
	j, err := journal.Open(journal.Config{
		Path:     journalPath,
		Snapshot: rc.snapshot,
		Faults:   faults,
	}, rc.applyPut, rc.applyEvict)
	if err != nil {
		return nil, err
	}
	rc.journal = j
	rc.metrics.Gauge("boundary_cache_entries",
		"Result-cache entries currently resident.").Set(float64(rc.c.Len()))
	return rc, nil
}

// applyPut replays one journaled result into the cache. The journal wrote
// resp as the compact body, so the replayed body is the bytes first served.
func (rc *resultCache) applyPut(put json.RawMessage) error {
	var ln cacheLine
	if err := json.Unmarshal(put, &ln); err != nil {
		return err
	}
	key, err := parseCacheKey(ln.Key)
	if err != nil {
		return err
	}
	if len(ln.Resp) == 0 || ln.Resp[0] != '{' {
		return errors.New("cache line missing response")
	}
	body := append(ln.Resp, '\n')
	rc.c.Add(key, body[:len(body):len(body)])
	return nil
}

// applyEvict replays one journaled eviction.
func (rc *resultCache) applyEvict(key string) error {
	k, err := parseCacheKey(key)
	if err != nil {
		return err
	}
	rc.c.Remove(k)
	return nil
}

// snapshot emits the live cache for journal compaction, least recently used
// first so a replay reproduces the recency order.
func (rc *resultCache) snapshot() []json.RawMessage {
	items := rc.c.Items()
	out := make([]json.RawMessage, 0, len(items))
	for _, it := range items {
		out = append(out, appendCacheLine(nil, it.Key, it.Value))
	}
	return out
}

// appendCacheLine appends the journal payload for one cached body.
func appendCacheLine(dst []byte, key [sha256.Size]byte, body []byte) []byte {
	dst = append(dst, `{"key":"`...)
	dst = hex.AppendEncode(dst, key[:])
	dst = append(dst, `","resp":`...)
	dst = append(dst, body[:len(body)-1]...)
	return append(dst, '}')
}

// parseCacheKey decodes a hex fingerprint back into the cache key.
func parseCacheKey(s string) ([sha256.Size]byte, error) {
	var key [sha256.Size]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return key, err
	}
	if len(b) != sha256.Size {
		return key, fmt.Errorf("cache key is %d bytes, want %d", len(b), sha256.Size)
	}
	copy(key[:], b)
	return key, nil
}

// close compacts and closes the journal; nil-safe for disabled caches and
// no-op for memory-only ones.
func (rc *resultCache) close() error {
	if rc == nil {
		return nil
	}
	return rc.journal.Close()
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

// put stores a body, counting any eviction, updating the entry gauge,
// and journaling both the put and any capacity eviction when durable. A
// failed journal write is dropped: it costs only warmth after a restart.
func (rc *resultCache) put(key [sha256.Size]byte, body []byte) {
	if rc == nil {
		return
	}
	// Capped so that no holder can append to the shared bytes in place.
	evictedKey, evicted := rc.c.Add(key, body[:len(body):len(body)])
	if evicted {
		rc.metrics.Counter("boundary_cache_evictions_total",
			"Result-cache entries evicted to make room.").Inc()
	}
	rc.metrics.Gauge("boundary_cache_entries",
		"Result-cache entries currently resident.").Set(float64(rc.c.Len()))
	if rc.journal == nil {
		return
	}
	if evicted {
		_ = rc.journal.AppendEvict(hex.EncodeToString(evictedKey[:]), rc.c.Len())
	}
	_ = rc.journal.Append(appendCacheLine(nil, key, body), rc.c.Len())
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
