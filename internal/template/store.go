package template

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/htmlparse"
	"repro/internal/journal"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/tagtree"
)

// ErrCorrupt marks a wrapper-store journal whose body (not merely its torn
// tail) fails to decode. Callers distinguish it from I/O errors with
// errors.Is; the store refuses to open over corruption rather than silently
// serving a partial memory of what it learned.
var ErrCorrupt = errors.New("template: corrupt store journal")

// Score is one compound-certainty row of a learned answer, mirroring the
// discover response's scores array.
type Score struct {
	Tag string  `json:"tag"`
	CF  float64 `json:"cf"`
}

// RankEntry is one row of a heuristic's ranking, mirroring the wire shape.
type RankEntry struct {
	Tag  string `json:"tag"`
	Rank int    `json:"rank"`
}

// Candidate is one candidate separator tag with its subtree count.
type Candidate struct {
	Tag   string `json:"tag"`
	Count int    `json:"count"`
}

// Entry is a learned wrapper: the complete, reconstructable discovery answer
// for one (fingerprint, options) key. It snapshots every field a discover
// response or downstream record split needs, so serving from the store is
// byte-identical to re-running the heuristics on an identically-shaped page.
// Entries are stored only for clean (non-degraded) discoveries.
type Entry struct {
	// Key is the hex store key (MakeKey of fingerprint + option salt).
	Key string `json:"key"`
	// Separator and TopTags are the discovery consensus.
	Separator string   `json:"separator"`
	TopTags   []string `json:"top_tags"`
	// Scores are all candidates with compound CFs, best first.
	Scores []Score `json:"scores"`
	// Rankings holds each contributing heuristic's ordered answer.
	Rankings map[string][]RankEntry `json:"rankings"`
	// Candidates are the candidate tags with counts, descending.
	Candidates []Candidate `json:"candidates"`
	// Subtree names the highest-fan-out node the answer was learned on; a
	// hit whose document disagrees is drift, not a servable answer.
	Subtree string `json:"subtree"`
	// Reasons carries per-heuristic decline reasons (library surface).
	Reasons map[string]string `json:"reasons,omitempty"`
	// Certainty is the compound CF of the winning separator — the entry's
	// health: below the store's MinCertainty it is evicted on lookup.
	Certainty float64 `json:"certainty"`
}

// Validate checks an entry is well-formed enough to serve: parseable key,
// non-empty separator and subtree, certainty in [0,1].
func (e *Entry) Validate() error {
	if e == nil {
		return errors.New("template: nil entry")
	}
	if _, err := ParseKey(e.Key); err != nil {
		return err
	}
	if e.Separator == "" {
		return errors.New("template: entry missing separator")
	}
	if e.Subtree == "" {
		return errors.New("template: entry missing subtree")
	}
	if e.Certainty < 0 || e.Certainty > 1 {
		return fmt.Errorf("template: entry certainty %v out of range", e.Certainty)
	}
	return nil
}

// clone deep-copies an entry so cached state can never be mutated through a
// pointer a caller still holds.
func (e *Entry) clone() *Entry {
	c := *e
	c.TopTags = append([]string(nil), e.TopTags...)
	c.Scores = append([]Score(nil), e.Scores...)
	c.Candidates = append([]Candidate(nil), e.Candidates...)
	if e.Rankings != nil {
		c.Rankings = make(map[string][]RankEntry, len(e.Rankings))
		for k, v := range e.Rankings {
			c.Rankings[k] = append([]RankEntry(nil), v...)
		}
	}
	if e.Reasons != nil {
		c.Reasons = make(map[string]string, len(e.Reasons))
		for k, v := range e.Reasons {
			c.Reasons[k] = v
		}
	}
	return &c
}

// Equal reports semantic equality. The store uses it to suppress redundant
// journal writes when a node re-learns what it already knows; spot-checks
// use it to compare a stored answer against a fresh full-discovery answer.
func (e *Entry) Equal(o *Entry) bool {
	ej, _ := json.Marshal(e)
	oj, _ := json.Marshal(o)
	return string(ej) == string(oj)
}

// DefaultMinCertainty is the drift floor: stored answers whose compound CF
// fell below it are evicted on lookup and relearned. The paper's Figure-2
// worked example lands at 0.9996; anything under one-half means the
// heuristics themselves were ambivalent, so we don't trust a cached copy.
const DefaultMinCertainty = 0.5

// DefaultCapacity bounds the in-memory entry count when Config.Capacity is
// zero. One entry is a few hundred bytes; 4096 covers far more distinct
// templates than any real site exhibits.
const DefaultCapacity = 4096

// FaultLookup is this package's fault hook point (catalog:
// docs/ROBUSTNESS.md). It fires at the head of every store lookup; an armed
// error turns the lookup into a miss (counted as a lookup error), proving a
// degraded store falls back to full discovery.
const FaultLookup = "template/lookup"

// Config configures a Store.
type Config struct {
	// Capacity bounds in-memory entries (LRU); 0 means DefaultCapacity.
	Capacity int
	// Path is the disk journal; empty means memory-only.
	Path string
	// MinCertainty is the drift floor; 0 means DefaultMinCertainty. Use a
	// negative value to disable the floor entirely.
	MinCertainty float64
	// SpotCheckEvery re-verifies every Nth hit against full discovery
	// (deterministic cadence, not sampling, so tests are exact); 0
	// disables spot-checks.
	SpotCheckEvery int
	// Metrics receives boundary_template_* series; nil disables.
	Metrics *obs.Registry
	// Faults is the chaos-test hook set; nil disables.
	Faults *faultinject.Set
}

// Store maps template keys to learned wrappers. It is safe for concurrent
// use and optionally journaled to disk for warm restarts. In a fleet each
// node holds its own *Store and fills it only from what it learns.
type Store struct {
	cfg Config

	journal *journal.Journal // nil when memory-only

	cache *lru.Cache[Key, *Entry]

	hits atomic.Uint64 // lifetime hit ordinal, drives spot-check cadence

	mHits, mMisses, mStores, mLookupErrs *obs.Counter
	mEntries                             *obs.Gauge
}

// Open creates a store. With a non-empty cfg.Path it replays the journal
// through the shared internal/journal machinery (tolerating a torn final
// line, exactly like the bulk checkpoint journal) and keeps the file open
// for appends; a journal corrupt before its final line returns an error
// wrapping ErrCorrupt.
func Open(cfg Config) (*Store, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.MinCertainty == 0 {
		cfg.MinCertainty = DefaultMinCertainty
	}
	s := &Store{
		cfg:   cfg,
		cache: lru.New[Key, *Entry](cfg.Capacity),

		mHits:       cfg.Metrics.Counter("boundary_template_hits_total", "Template fast-path lookups served from the wrapper store."),
		mMisses:     cfg.Metrics.Counter("boundary_template_misses_total", "Template fast-path lookups that fell back to full discovery."),
		mStores:     cfg.Metrics.Counter("boundary_template_stores_total", "Learned wrappers stored locally."),
		mLookupErrs: cfg.Metrics.Counter("boundary_template_lookup_errors_total", "Store lookups that failed and degraded to a miss."),
		mEntries:    cfg.Metrics.Gauge("boundary_template_entries", "Learned wrappers currently held in memory."),
	}
	if cfg.Path != "" {
		j, err := journal.Open(journal.Config{
			Path:     cfg.Path,
			Snapshot: s.snapshot,
			Faults:   cfg.Faults,
		}, s.applyPut, s.applyEvict)
		if err != nil {
			if errors.Is(err, journal.ErrCorrupt) {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			return nil, err
		}
		s.journal = j
	}
	s.mEntries.Set(float64(s.cache.Len()))
	return s, nil
}

// applyPut replays one journaled put into the cache; a malformed or invalid
// entry is an error the journal layer maps to torn-tail tolerance or
// ErrCorrupt by position.
func (s *Store) applyPut(put json.RawMessage) error {
	var e Entry
	if err := json.Unmarshal(put, &e); err != nil {
		return err
	}
	if err := e.Validate(); err != nil {
		return err
	}
	k, _ := ParseKey(e.Key)
	s.cache.Add(k, &e)
	return nil
}

// applyEvict replays one journaled eviction.
func (s *Store) applyEvict(key string) error {
	k, err := ParseKey(key)
	if err != nil {
		return err
	}
	s.cache.Remove(k)
	return nil
}

// snapshot emits every live entry for journal compaction, least recently
// used first (the order that, replayed, reproduces the recency state).
func (s *Store) snapshot() []json.RawMessage {
	vals := s.cache.Values()
	out := make([]json.RawMessage, 0, len(vals))
	for _, e := range vals {
		b, err := json.Marshal(e)
		if err != nil {
			continue
		}
		out = append(out, b)
	}
	return out
}

// appendPut journals one stored entry. Journaling is best-effort: a lost
// line costs only warmth after a restart, never a wrong answer.
func (s *Store) appendPut(e *Entry) {
	if s.journal == nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	_ = s.journal.Append(b, s.cache.Len())
}

// Lookup returns the stored entry for key, if one exists and is healthy. A
// lookup fault (chaos: FaultLookup) or a below-floor certainty degrades to a
// miss; the latter also evicts so the next discovery relearns the template.
func (s *Store) Lookup(key Key) (*Entry, bool) {
	if s == nil {
		return nil, false
	}
	if err := s.cfg.Faults.Fire(FaultLookup); err != nil {
		s.mLookupErrs.Inc()
		s.mMisses.Inc()
		return nil, false
	}
	e, ok := s.cache.Get(key)
	if !ok {
		s.mMisses.Inc()
		return nil, false
	}
	if e.Certainty < s.cfg.MinCertainty {
		s.evict(key, "low_certainty")
		s.mMisses.Inc()
		return nil, false
	}
	s.mHits.Inc()
	return e.clone(), true
}

// LookupDoc is Lookup over a raw HTML document: it fingerprints doc with the
// fast scanner and returns the entry, the computed key (for a later Put on
// miss), and whether it hit.
func (s *Store) LookupDoc(doc, salt string) (*Entry, Key, bool) {
	return s.LookupDocWithin(doc, salt, tagtree.Limits{})
}

// LookupDocWithin is LookupDoc for a caller that parses under lim. A
// document tagtree would refuse under lim (too long, too deep, or too many
// nodes) is not looked up and counts neither a hit nor a miss, so the
// caller's parse refuses it exactly as it would without a store.
func (s *Store) LookupDocWithin(doc, salt string, lim tagtree.Limits) (*Entry, Key, bool) {
	if htmlparse.CheckSize(doc, lim.MaxBytes) != nil {
		return nil, Key{}, false
	}
	fp, depth, nodes := scanDoc(doc)
	key := MakeKey(fp, salt)
	if (lim.MaxDepth > 0 && depth > lim.MaxDepth) || (lim.MaxNodes > 0 && nodes > lim.MaxNodes) {
		return nil, key, false
	}
	e, ok := s.Lookup(key)
	return e, key, ok
}

// SpotCheck reports whether this hit should be re-verified against full
// discovery. The cadence is a deterministic 1-in-N on the lifetime hit
// ordinal, so tests can force the Nth request to verify.
func (s *Store) SpotCheck() bool {
	if s == nil || s.cfg.SpotCheckEvery <= 0 {
		return false
	}
	return s.hits.Add(1)%uint64(s.cfg.SpotCheckEvery) == 0
}

// ReportSpotCheck records a spot-check outcome ("ok" or "divergent").
func (s *Store) ReportSpotCheck(outcome string) {
	if s == nil {
		return
	}
	s.cfg.Metrics.Counter("boundary_template_spot_checks_total",
		"Template hits re-verified against full discovery, by outcome.",
		"outcome", outcome).Inc()
}

// Put stores a learned entry: validates, caches and journals it. Identical
// re-learns are dropped so the journal doesn't grow with what the store
// already knows.
func (s *Store) Put(e *Entry) error {
	if s == nil {
		return nil
	}
	if err := e.Validate(); err != nil {
		return err
	}
	key, _ := ParseKey(e.Key)
	if old, ok := s.cache.Get(key); ok && old.Equal(e) {
		return nil
	}
	e = e.clone()
	s.cache.Add(key, e)
	s.mEntries.Set(float64(s.cache.Len()))
	s.mStores.Inc()
	s.appendPut(e)
	return nil
}

// ReportDrift evicts key because its stored answer no longer matches the
// document (reason "divergent"), the page shape ("subtree_mismatch"), or the
// certainty floor ("low_certainty"), and counts the eviction by reason.
func (s *Store) ReportDrift(key Key, reason string) {
	if s == nil {
		return
	}
	s.evict(key, reason)
}

func (s *Store) evict(key Key, reason string) {
	if s.cache.Remove(key) && s.journal != nil {
		_ = s.journal.AppendEvict(key.String(), s.cache.Len())
	}
	s.mEntries.Set(float64(s.cache.Len()))
	s.cfg.Metrics.Counter("boundary_template_drift_total",
		"Stored wrappers evicted as drifted, by reason.", "reason", reason).Inc()
}

// Stats is a point-in-time snapshot of the store's counters for the stats
// endpoint and tests.
type Stats struct {
	Entries      int     `json:"entries"`
	Hits         float64 `json:"hits"`
	Misses       float64 `json:"misses"`
	Stores       float64 `json:"stores"`
	LookupErrors float64 `json:"lookup_errors"`
}

// Stats returns current counters. Without a metrics registry only Entries is
// populated.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Entries:      s.cache.Len(),
		Hits:         s.mHits.Value(),
		Misses:       s.mMisses.Value(),
		Stores:       s.mStores.Value(),
		LookupErrors: s.mLookupErrs.Value(),
	}
}

// Len returns the number of entries held in memory.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return s.cache.Len()
}

// Reset drops every in-memory entry (journal untouched; benchmarks use it to
// force the miss path).
func (s *Store) Reset() {
	if s == nil {
		return
	}
	for _, e := range s.cache.Values() {
		if k, err := ParseKey(e.Key); err == nil {
			s.cache.Remove(k)
		}
	}
	s.mEntries.Set(float64(s.cache.Len()))
}

// Close compacts and closes the journal. The store must not be used after
// Close; a memory-only store's Close is a no-op.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.journal.Close()
}
