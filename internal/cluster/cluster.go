// Package cluster is the routing core of a fleet: a consistent-hash router
// that decides which member answers each discovery document — a remote
// member speaking the single-node HTTP API (HTTPPeer) or the node's own
// share of the ring, called in process (LocalPeer). It has no HTTP surface
// of its own: a fleet node's httpapi handler calls Router.Forward for every
// discover document (httpapi.Config.Forward), so each request passes one
// HTTP stack once. In production the peer set comes from gossip membership
// (internal/membership), which adds and removes peers as nodes join and
// leave, and whose failure detector is the router's only liveness signal: a
// Suspect member stays on the ring but is routed around (SetSuspect) until
// it is heard from again.
//
// The design leans on the pipeline being embarrassingly shardable: each
// document's boundary discovery (tag tree → highest-fan-out subtree → five
// heuristics → certainty combination) is independent of every other
// document, so any replica can serve any request and routing is purely a
// performance decision. The router makes that decision with a consistent
// hash over httpapi.RequestFingerprint — the same fingerprint the replicas
// use as their LRU result-cache key — which gives each replica a stable key
// range and keeps its cache hot for exactly that range.
//
// Around the hash ring sit the serving-tier protections:
//
//   - ejection and readmission driven by membership suspicion, so a dead
//     replica's key range reroutes to its ring successor and snaps back,
//     caches intact, when it recovers — the ring itself never changes;
//     suspicion also ends the attempts in flight to the suspect, which
//     reroute down the preference order, and until it lands a request
//     whose attempt fails on a dead peer reroutes the same way;
//   - bounded per-peer queues, so one saturated replica applies
//     backpressure (bulk documents wait; interactive requests reroute, then
//     shed with 429) instead of queueing unboundedly;
//   - hedged requests: when the primary has not answered within
//     Config.HedgeAfter, a second attempt fires at the next peer on the
//     ring and the first result wins — cutting tail latency when one
//     replica stalls;
//   - retry passes for bulk documents (batch items and stream lines),
//     reusing the bulk engine's backoff (pipeline.RetryPolicy) for
//     transient peer failures.
//
// Every surface is conformance-tested byte-identical to the single-node
// service (see conformance_test.go at the repo root): the router forwards
// request bytes verbatim and returns replica response bytes verbatim, so a
// fleet is indistinguishable from one node except in throughput.
//
// Observability: boundary_cluster_* metrics (per-peer requests, hedges
// fired/won, ejections, queue depth) in Config.Metrics, and per-hop spans
// (cluster/route, cluster/peer/<name>) on the calling request's trace; a
// remote hop injects traceparent so the member's fragment nests under its
// hop span. ServeClusterMetrics federates every member's /metrics. Chaos
// hooks cluster/route, cluster/peer[/<name>], and cluster/hedge arm the
// fault-injection tests (internal/faultinject).
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Config tunes one Router.
type Config struct {
	// Peers are the backend replicas; at least one is required and names
	// must be unique (they seed the hash ring).
	Peers []Peer
	// HedgeAfter is how long the primary peer may go unanswered before a
	// hedged second attempt fires at the next peer on the ring. Zero
	// disables hedging.
	HedgeAfter time.Duration
	// QueueDepth bounds each peer's in-flight requests from this router;
	// <= 0 selects 32. A full queue reroutes interactive requests (429 when
	// every peer is full) and makes bulk documents wait.
	QueueDepth int
	// Metrics receives the boundary_cluster_* series; nil disables them.
	Metrics *obs.Registry
	// Logger receives membership changes, ejections and readmissions; nil
	// disables them.
	Logger *slog.Logger
	// Faults is the test-only fault-injection hook set; nil in production.
	Faults *faultinject.Set
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 32
	}
	return c.QueueDepth
}

// retryPolicy governs re-routing retries for batch and stream documents
// whose routing failed on every currently-available peer (transient windows:
// a peer died but membership has not suspected it yet): 3 attempts with the
// bulk engine's default backoff.
var retryPolicy = pipeline.RetryPolicy{MaxAttempts: 3}

// hedgeWinnerCacheSize bounds the router's memory of hedge outcomes (see
// Router.winners).
const hedgeWinnerCacheSize = 4096

// routerView is one immutable snapshot of the peer set and its hash ring.
// Requests load the current view once and route entirely against it, so a
// membership change mid-request is invisible: in-flight attempts finish
// against the peers they started with (a removed peer's attempt fails and
// the normal reroute/retry machinery absorbs it), and the next request —
// or the next retry pass — sees the new view. Mutations build a fresh view
// and swap the pointer; they never modify a published one.
type routerView struct {
	peers []*peerState
	ring  *ring
	index map[string]int // peer name → index in peers
}

// newView builds a view (and its ring) over the given peer states.
func newView(peers []*peerState) *routerView {
	names := make([]string, len(peers))
	index := make(map[string]int, len(peers))
	for i, ps := range peers {
		names[i] = ps.peer.Name()
		index[names[i]] = i
	}
	return &routerView{peers: peers, ring: newRing(names), index: index}
}

// Router routes each discover document to its ring owner (Forward). It runs
// no goroutine of its own. The peer set is dynamic: AddPeer/RemovePeer
// rebalance the ring incrementally (names own ring shares, so only the
// moved vnodes' keys change owner) while requests keep flowing, and
// SetSuspect moves a peer out of and back into the rotation without
// touching the ring.
type Router struct {
	cfg Config

	mu   sync.Mutex // serializes membership mutations (view swaps)
	view atomic.Pointer[routerView]

	// winners remembers, per routing key, the peer that won a hedge — so a
	// hot document on a persistently slow primary is routed straight to the
	// replica that actually answered (and whose cache now holds the result)
	// instead of paying the hedge delay again. Bounded LRU keyed by peer
	// NAME (indices are unstable under membership churn); entries for
	// suspect or departed peers are ignored at lookup.
	winners *lru.Cache[fingerprint, string]
}

// snapshot returns the current immutable view.
func (r *Router) snapshot() *routerView {
	return r.view.Load()
}

// NewRouter validates cfg and builds the ring. Every peer starts in the
// rotation.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: at least one peer is required")
	}
	seen := make(map[string]bool, len(cfg.Peers))
	for i, p := range cfg.Peers {
		name := p.Name()
		if name == "" {
			return nil, fmt.Errorf("cluster: peer %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", name)
		}
		seen[name] = true
	}

	r := &Router{
		cfg:     cfg,
		winners: lru.New[fingerprint, string](hedgeWinnerCacheSize),
	}
	peers := make([]*peerState, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		peers = append(peers, newPeerState(p, cfg.queueDepth()))
	}
	r.view.Store(newView(peers))
	r.healthyGauge().Set(float64(len(peers)))
	return r, nil
}

// AddPeer adds (or, for a rejoining node whose address changed, replaces) a
// peer and rebalances the ring. Replacement retains nothing of the old
// peer's state — a rejoined node is a fresh peer with an empty queue, in the
// rotation until SetSuspect says otherwise. In-flight requests keep routing
// against the previous view until they finish.
func (r *Router) AddPeer(p Peer) error {
	name := p.Name()
	if name == "" {
		return errors.New("cluster: peer has an empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.view.Load()
	peers := make([]*peerState, 0, len(old.peers)+1)
	for _, ps := range old.peers {
		if ps.peer.Name() == name {
			continue // replaced below
		}
		peers = append(peers, ps)
	}
	peers = append(peers, newPeerState(p, r.cfg.queueDepth()))
	r.swapView(peers, "add", name)
	return nil
}

// RemovePeer drops a peer from the rotation and rebalances the ring; its
// in-flight requests fail over through the normal reroute machinery. It
// reports whether the peer was present.
func (r *Router) RemovePeer(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.view.Load()
	if _, ok := old.index[name]; !ok {
		return false
	}
	peers := make([]*peerState, 0, len(old.peers)-1)
	for _, ps := range old.peers {
		if ps.peer.Name() != name {
			peers = append(peers, ps)
		}
	}
	r.swapView(peers, "remove", name)
	return true
}

// swapView publishes a new view (caller holds r.mu) and records the change.
func (r *Router) swapView(peers []*peerState, op, name string) {
	r.view.Store(newView(peers))
	r.healthyGauge().Set(float64(r.healthyCount()))
	r.cfg.Metrics.Gauge("boundary_cluster_peers",
		"Peers currently in the ring, suspect or not.").Set(float64(len(peers)))
	r.counter("boundary_cluster_membership_changes_total",
		"Dynamic peer-set changes applied to the ring, by operation.", "op", op).Inc()
	if r.cfg.Logger != nil {
		r.cfg.Logger.Info("cluster membership change", "op", op, "peer", name, "peers", len(peers))
	}
}

// PeerNames returns the current ring membership, sorted by ring construction
// order (the order peers were added).
func (r *Router) PeerNames() []string {
	v := r.snapshot()
	names := make([]string, len(v.peers))
	for i, ps := range v.peers {
		names[i] = ps.peer.Name()
	}
	return names
}

// ServeClusterMetrics serves GET /metrics/cluster, the federation endpoint
// cmd/serve mounts beside the node's handler. It scrapes every peer's
// /metrics concurrently (bounded by a short timeout so one hung replica
// cannot stall the scrape), merges them with the router's own registry
// (labelled peer="router"), and re-emits every series with a peer="<name>"
// label — one scrape shows the whole ring. Peers that cannot be scraped are
// reported as boundary_federation_peers{peer}=0 plus a comment, not an
// error status.
func (r *Router) ServeClusterMetrics(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := context.WithTimeout(req.Context(), 2*time.Second)
	defer cancel()

	v := r.snapshot()
	results := make([]obs.Scrape, len(v.peers))
	var wg sync.WaitGroup
	for i, ps := range v.peers {
		wg.Add(1)
		go func(i int, ps *peerState) {
			defer wg.Done()
			data, err := ps.peer.ScrapeMetrics(ctx)
			results[i] = obs.Scrape{Peer: ps.peer.Name(), Data: data, Err: err}
		}(i, ps)
	}
	var self bytes.Buffer
	_ = r.cfg.Metrics.WritePrometheus(&self)
	wg.Wait()

	scrapes := append([]obs.Scrape{{Peer: "router", Data: self.Bytes()}}, results...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteFederated(w, scrapes)
}

// SetSuspect moves the named peer out of the rotation (suspect) or back into
// it, leaving the ring unchanged: a suspect peer keeps its ring share, its
// keys route to the next peer on the ring, and they snap back — caches
// intact — when it is readmitted. Turning suspect also ends the attempts in
// flight to the peer, which reroute down their preference order (counted
// under outcome="suspected"). It is the only way a peer leaves or re-enters
// the rotation; cmd/serve drives it from membership's Alive/Suspect state.
// It reports whether the peer is in the ring.
func (r *Router) SetSuspect(name string, suspect bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.view.Load()
	idx, ok := v.index[name]
	if !ok {
		return false
	}
	if !v.peers[idx].setSuspect(suspect) {
		return true // already in that state
	}
	r.healthyGauge().Set(float64(r.healthyCount()))
	if suspect {
		r.counter("boundary_cluster_ejections_total",
			"Peers moved out of the routing rotation because membership suspects them, by peer.",
			"peer", name).Inc()
		if r.cfg.Logger != nil {
			r.cfg.Logger.Warn("cluster peer ejected", "peer", name)
		}
	} else {
		r.counter("boundary_cluster_readmissions_total",
			"Suspect peers readmitted to the routing rotation once membership hears from them again, by peer.",
			"peer", name).Inc()
		if r.cfg.Logger != nil {
			r.cfg.Logger.Info("cluster peer readmitted", "peer", name)
		}
	}
	return true
}

// healthyCount returns how many peers are in the rotation.
func (r *Router) healthyCount() int {
	n := 0
	for _, ps := range r.snapshot().peers {
		if ps.healthy() {
			n++
		}
	}
	return n
}

func (r *Router) counter(name, help string, labels ...string) *obs.Counter {
	return r.cfg.Metrics.Counter(name, help, labels...)
}

func (r *Router) healthyGauge() *obs.Gauge {
	return r.cfg.Metrics.Gauge("boundary_cluster_peers_healthy",
		"Ring peers currently in the routing rotation (not suspect).")
}

func (r *Router) queueGauge(peer string) *obs.Gauge {
	return r.cfg.Metrics.Gauge("boundary_cluster_peer_queue_depth",
		"Occupied per-peer queue slots, by peer.", "peer", peer)
}
