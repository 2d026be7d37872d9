// Package membership is the cluster's dynamic-fleet layer: a seed-node join
// protocol with gossip-style liveness. Every node runs a small gossip loop
// that periodically sends its full member view (each member carrying a name,
// serving address, state, and incarnation number, plus a digest of the whole
// list) to the peers it knows; replies and incoming gossips are merged under
// SWIM-style rules, so views converge without any coordinator.
//
// Failure detection is timeout-driven with refutation. A member that has not
// been heard from for SuspectAfter becomes Suspect: it stays in the serving
// set, keeping its share of the consistent-hash ring, but the router routes
// around it until it is heard from again — so a slow peer's keys move to its
// ring successor and snap back without a rebalance. Only after DeadAfter
// does it become Dead and leave the serving set (and the ring). A node that
// learns it is suspected refutes by bumping its own incarnation and
// re-announcing itself Alive; the higher incarnation wins everywhere, so the
// suspicion clears without flapping. Graceful shutdown broadcasts Left,
// which is terminal for that incarnation.
//
// Merge rules (per member record): a higher incarnation always wins; at the
// same incarnation the more severe state wins (Alive < Suspect < Dead <
// Left). Only a node itself ever raises its own incarnation — that is what
// makes refutation authoritative.
//
// The serving set (Alive + Suspect members, each with its state) feeds the
// consistent-hash ring in internal/cluster through Config.OnChange, which
// fires on membership changes and on Alive↔Suspect transitions alike; it is
// the router's only liveness signal. docs/SCALING.md walks through the join
// flow and the state machine.
package membership

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// State is one member's liveness state. The numeric order is the merge
// precedence at equal incarnation: later states are "more severe" and win.
type State int

const (
	// Alive members heartbeat on schedule and serve traffic.
	Alive State = iota
	// Suspect members missed heartbeats past SuspectAfter. They stay in
	// the serving set and keep their ring shares, but are routed around;
	// they clear the suspicion by refuting with a higher incarnation.
	Suspect
	// Dead members missed heartbeats past DeadAfter and are out of the
	// serving set. A Dead node that comes back refutes its way in again.
	Dead
	// Left members announced a graceful departure; terminal for that
	// incarnation (a restart rejoins with a refutation bump).
	Left
)

// String returns the lowercase state name used on the wire and in metrics.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Left:
		return "left"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Member is one node's record in the gossip view.
type Member struct {
	// Name uniquely identifies the node across restarts.
	Name string `json:"name"`
	// Addr is the node's serving address (host:port), the same address
	// peers dial for /v1/ traffic and gossip.
	Addr string `json:"addr"`
	// State is the liveness state as known by the sender.
	State State `json:"state"`
	// Incarnation orders records for the same name; only the node itself
	// raises its own incarnation (when refuting a suspicion).
	Incarnation uint64 `json:"incarnation"`
}

// Message is one gossip exchange: the sender's full view plus a digest of
// it, so receivers can cheaply observe convergence.
type Message struct {
	From    string   `json:"from"`
	Digest  string   `json:"digest"`
	Members []Member `json:"members"`
}

// Transport delivers one gossip message to a peer address and returns the
// peer's view in reply. Implementations: HTTPTransport (production) and the
// in-memory transport in the tests.
type Transport interface {
	Gossip(ctx context.Context, addr string, msg Message) (Message, error)
}

// FaultHeartbeat is this package's fault hook point (catalog:
// docs/ROBUSTNESS.md). It fires before each outgoing heartbeat; an armed
// error drops it (send and reply both lost), simulating a partitioned or
// stalled peer so tests can drive suspect→refutation transitions.
const FaultHeartbeat = "membership/heartbeat"

// Default timing. SuspectAfter and DeadAfter are multiples of the gossip
// interval: 3 missed rounds raise suspicion, 10 declare death.
const (
	DefaultInterval        = time.Second
	defaultSuspectRounds   = 3
	defaultDeadRounds      = 10
	defaultRequestTimeout  = 2 * time.Second
	defaultJoinRetryRounds = 3
)

// Config configures a Node.
type Config struct {
	// Name uniquely identifies this node; required.
	Name string
	// Addr is this node's serving address as peers should dial it; required.
	Addr string
	// Seeds are peer addresses to contact on Join. Empty bootstraps a new
	// cluster of one.
	Seeds []string
	// Interval is the gossip period; 0 selects DefaultInterval.
	Interval time.Duration
	// SuspectAfter is silence before a member turns Suspect; 0 selects
	// 3×Interval.
	SuspectAfter time.Duration
	// DeadAfter is silence before a Suspect member turns Dead; 0 selects
	// 10×Interval.
	DeadAfter time.Duration
	// Transport carries gossip; required.
	Transport Transport
	// OnChange observes every serving-set change (Alive+Suspect members,
	// sorted by name), including the initial set and every Alive↔Suspect
	// transition of a serving member. Called from the gossip
	// goroutine outside the node's lock; it must not call back into the
	// Node. The cluster router's dynamic peer set hangs off this.
	OnChange func([]Member)
	// Metrics receives boundary_membership_* series; nil disables.
	Metrics *obs.Registry
	// Traces, when non-nil, receives one trace per join attempt.
	Traces *obs.TraceStore
	// Service names this node in trace fragments; empty means Name.
	Service string
	// Logger receives membership transitions; nil disables.
	Logger *slog.Logger
	// Faults is the chaos-test hook set; nil disables.
	Faults *faultinject.Set
}

// Node is one cluster member: a gossip loop, a failure detector, and the
// merged view. All methods are safe for concurrent use.
type Node struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*memberState
	self    *memberState
	refuted bool // set by a self-refuting merge, drained by selfWasRefuted

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	mHeartbeats *obs.Counter
	mDropped    *obs.Counter
	mErrors     *obs.Counter
	mRefutes    *obs.Counter
}

// memberState is a Member plus the local failure detector's evidence.
type memberState struct {
	Member
	lastSeen time.Time
}

// New validates cfg, registers the node as the sole Alive member of its own
// view, and starts the gossip loop. Call Join to merge into an existing
// cluster and Close to stop.
func New(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("membership: a node name is required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("membership: a serving address is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("membership: a transport is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = defaultSuspectRounds * cfg.Interval
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = defaultDeadRounds * cfg.Interval
	}
	if cfg.Service == "" {
		cfg.Service = cfg.Name
	}
	n := &Node{
		cfg:     cfg,
		members: make(map[string]*memberState),
		done:    make(chan struct{}),

		mHeartbeats: cfg.Metrics.Counter("boundary_membership_heartbeats_total", "Gossip heartbeats sent, by outcome.", "outcome", "ok"),
		mDropped:    cfg.Metrics.Counter("boundary_membership_heartbeats_total", "Gossip heartbeats sent, by outcome.", "outcome", "dropped"),
		mErrors:     cfg.Metrics.Counter("boundary_membership_heartbeats_total", "Gossip heartbeats sent, by outcome.", "outcome", "error"),
		mRefutes:    cfg.Metrics.Counter("boundary_membership_refutations_total", "Suspicions of this node refuted by an incarnation bump."),
	}
	self := &memberState{
		Member:   Member{Name: cfg.Name, Addr: cfg.Addr, State: Alive, Incarnation: 1},
		lastSeen: time.Now(),
	}
	n.members[cfg.Name] = self
	n.self = self
	n.setStateGauges()
	n.wg.Add(1)
	go n.loop()
	return n, nil
}

// Join gossips with every seed, merging their views (and letting them learn
// about us). If a seed's view says this node is Suspect or Dead — a restart
// after a hard kill — the merge refutes with an incarnation bump and Join
// gossips again so the refutation lands before the node takes traffic. With
// no seeds Join is a no-op (bootstrap). It fails only when every seed does.
func (n *Node) Join(ctx context.Context) error {
	if len(n.cfg.Seeds) == 0 {
		return nil
	}
	t := n.trace("membership/join")
	defer func() {
		t.Finish()
		n.cfg.Traces.Publish(t)
	}()
	var lastErr error
	for round := 0; round < defaultJoinRetryRounds; round++ {
		reached := 0
		for _, seed := range n.cfg.Seeds {
			if seed == n.cfg.Addr {
				continue // a seed list may include ourselves
			}
			start := time.Now()
			reply, err := n.cfg.Transport.Gossip(ctx, seed, n.view())
			t.Add("join/seed", time.Since(start), "seed", seed, "err", errString(err))
			if err != nil {
				lastErr = err
				continue
			}
			reached++
			n.merge(reply.Members, seed)
		}
		if reached == 0 && len(n.seedsExcludingSelf()) > 0 {
			return fmt.Errorf("membership: no seed reachable: %w", lastErr)
		}
		// If the merge refuted a stale Suspect/Dead record of us, gossip
		// once more so seeds see the refutation before we serve.
		if !n.selfWasRefuted() {
			return nil
		}
	}
	return nil
}

// seedsExcludingSelf filters our own address out of the seed list.
func (n *Node) seedsExcludingSelf() []string {
	out := make([]string, 0, len(n.cfg.Seeds))
	for _, s := range n.cfg.Seeds {
		if s != n.cfg.Addr {
			out = append(out, s)
		}
	}
	return out
}

// selfWasRefuted reports whether the last merge bumped our incarnation (a
// refutation we should spread immediately), clearing the flag.
func (n *Node) selfWasRefuted() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.refuted
	n.refuted = false
	return r
}

// Leave broadcasts a graceful departure (state Left at a fresh incarnation)
// to every serving peer, then returns; callers follow with Close. Peers that
// miss the broadcast will detect the silence as Suspect→Dead instead.
func (n *Node) Leave(ctx context.Context) {
	n.mu.Lock()
	n.self.Incarnation++
	n.self.State = Left
	inc := n.self.Incarnation
	n.mu.Unlock()
	n.setStateGauges()
	msg := n.view()
	for _, m := range n.gossipTargets() {
		ctx, cancel := context.WithTimeout(ctx, defaultRequestTimeout)
		n.cfg.Transport.Gossip(ctx, m.Addr, msg)
		cancel()
	}
	n.logf("leaving", "incarnation", inc)
}

// Close stops the gossip loop and waits for it. It does not broadcast; call
// Leave first for a graceful departure.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.done) })
	n.wg.Wait()
}

// Members returns every known member (any state), sorted by name.
func (n *Node) Members() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		out = append(out, m.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Serving returns the serving set — Alive and Suspect members, sorted by
// name. Suspect members stay in so they keep their ring shares: removing
// them would rebalance the ring on every slow heartbeat, whereas routing
// around them (their State says to) lets their keys snap back untouched.
func (n *Node) Serving() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.servingLocked()
}

func (n *Node) servingLocked() []Member {
	out := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		if m.State == Alive || m.State == Suspect {
			out = append(out, m.Member)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// gossipTargets returns every member except self that is worth gossiping to
// (not Left, not Dead — the failure detector, not the gossip fan-out, is
// responsible for noticing a Dead node's return).
func (n *Node) gossipTargets() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		if m.Name == n.cfg.Name || m.State == Dead || m.State == Left {
			continue
		}
		out = append(out, m.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// view snapshots the full member list as a gossip message.
func (n *Node) view() Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	members := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		members = append(members, m.Member)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	return Message{From: n.cfg.Name, Digest: digest(members), Members: members}
}

// Digest returns the current view digest; tests use it to await convergence.
func (n *Node) Digest() string {
	return n.view().Digest
}

// digest hashes the sorted member tuples; two converged views share it.
func digest(members []Member) string {
	h := sha256.New()
	for _, m := range members {
		fmt.Fprintf(h, "%s|%s|%d|%d;", m.Name, m.Addr, m.State, m.Incarnation)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ReceiveGossip merges an incoming view and replies with our own — the
// receiving half of the protocol, mounted at POST /v1/cluster/gossip (and
// /v1/cluster/join, which is just a first gossip). Hearing from a peer is
// liveness evidence for it regardless of what any view claims.
func (n *Node) ReceiveGossip(msg Message) Message {
	n.merge(msg.Members, msg.From)
	return n.view()
}

// merge folds incoming member records into the local view under the
// incarnation/severity rules, records liveness evidence for heard, and
// fires OnChange when the serving set changed.
func (n *Node) merge(incoming []Member, heard string) {
	n.mu.Lock()
	before := servingSignature(n.servingLocked())
	now := time.Now()
	if m, ok := n.members[heard]; ok {
		m.lastSeen = now
	}
	for _, in := range incoming {
		if in.Name == n.cfg.Name {
			n.mergeSelfLocked(in)
			continue
		}
		cur, ok := n.members[in.Name]
		if !ok {
			n.members[in.Name] = &memberState{Member: in, lastSeen: now}
			n.logf("member discovered", "member", in.Name, "addr", in.Addr, "state", in.State.String())
			continue
		}
		if in.Incarnation > cur.Incarnation || (in.Incarnation == cur.Incarnation && in.State > cur.State) {
			prev := cur.State
			cur.Member = in
			if in.State == Alive {
				// A refutation (or rejoin) at a higher incarnation resets
				// the failure detector's clock.
				cur.lastSeen = now
			}
			if prev != in.State {
				n.transition(in.Name, prev, in.State)
			}
		}
	}
	after := servingSignature(n.servingLocked())
	changed := before != after
	var serving []Member
	if changed {
		serving = n.servingLocked()
	}
	n.mu.Unlock()
	n.setStateGauges()
	if changed && n.cfg.OnChange != nil {
		n.cfg.OnChange(serving)
	}
}

// mergeSelfLocked handles an incoming record about this node. Suspicion or
// death at our incarnation (or newer) is refuted: we bump past it and
// re-announce Alive — only the node itself may raise its own incarnation,
// which is what makes the refutation stick everywhere.
func (n *Node) mergeSelfLocked(in Member) {
	if in.State == Alive || in.Incarnation < n.self.Incarnation {
		return
	}
	if n.self.State == Left {
		return // we are leaving; let the record stand
	}
	n.self.Incarnation = in.Incarnation + 1
	n.self.State = Alive
	n.refuted = true
	n.mRefutes.Inc()
	n.logf("refuted suspicion", "claimed", in.State.String(), "incarnation", n.self.Incarnation)
}

// loop is the gossip goroutine: heartbeat every Interval, then run the
// failure detector. Heartbeat exchanges run concurrently, but every reply
// is merged here, one at a time, so OnChange fires serially and in order.
// Closing the node cancels the exchanges still in flight and waits for them.
func (n *Node) loop() {
	defer n.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	g := &gossip{replies: make(chan gossipReply), pending: make(map[string]bool)}
	defer g.exchanges.Wait()
	defer cancel()
	ticker := time.NewTicker(n.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
			n.gossipRound(ctx, g)
			n.detect()
		case r := <-g.replies:
			n.finishExchange(g, r)
		}
	}
}

// gossip is the loop goroutine's record of its heartbeat exchanges.
type gossip struct {
	replies   chan gossipReply
	pending   map[string]bool // targets with an exchange in flight
	exchanges sync.WaitGroup
}

// gossipReply is one finished heartbeat exchange.
type gossipReply struct {
	target string
	reply  Message
	err    error
}

// gossipRound heartbeats every gossipable peer with our view, all at once,
// and merges replies as they arrive until every exchange has answered or
// one interval has passed; a later reply is merged by the loop. A member
// with an exchange still in flight is skipped, so a stalled member holds
// one exchange at a time and delays no other member's heartbeat. The
// membership/heartbeat fault drops a heartbeat outright — neither our view
// nor the reply arrives — which is exactly what a partition looks like to
// both sides.
func (n *Node) gossipRound(ctx context.Context, g *gossip) {
	msg := n.view()
	for _, m := range n.gossipTargets() {
		if g.pending[m.Name] {
			continue
		}
		if err := n.cfg.Faults.Fire(FaultHeartbeat); err != nil {
			n.mDropped.Inc()
			continue
		}
		g.pending[m.Name] = true
		g.exchanges.Add(1)
		go func(m Member) {
			defer g.exchanges.Done()
			rctx, cancel := context.WithTimeout(ctx, n.requestTimeout())
			reply, err := n.cfg.Transport.Gossip(rctx, m.Addr, msg)
			cancel()
			select {
			case g.replies <- gossipReply{target: m.Name, reply: reply, err: err}:
			case <-ctx.Done():
			}
		}(m)
	}
	timer := time.NewTimer(n.cfg.Interval)
	defer timer.Stop()
	for len(g.pending) > 0 {
		select {
		case r := <-g.replies:
			n.finishExchange(g, r)
		case <-timer.C:
			return
		case <-n.done:
			return
		}
	}
}

// finishExchange retires one heartbeat exchange and merges its reply.
func (n *Node) finishExchange(g *gossip, r gossipReply) {
	delete(g.pending, r.target)
	if r.err != nil {
		n.mErrors.Inc()
		return
	}
	n.mHeartbeats.Inc()
	n.merge(r.reply.Members, r.target)
}

// requestTimeout bounds one gossip exchange: long enough for a slow peer.
// A stalled peer holds only its own exchange (see gossipRound).
func (n *Node) requestTimeout() time.Duration {
	if t := 2 * n.cfg.Interval; t < defaultRequestTimeout {
		return defaultRequestTimeout
	}
	return 2 * n.cfg.Interval
}

// detect advances the failure detector: Alive members silent past
// SuspectAfter turn Suspect (still serving, but routed around); Suspect
// members silent past DeadAfter turn Dead and leave the serving set. Either
// transition fires OnChange.
func (n *Node) detect() {
	n.mu.Lock()
	before := servingSignature(n.servingLocked())
	now := time.Now()
	for _, m := range n.members {
		if m.Name == n.cfg.Name {
			continue
		}
		silent := now.Sub(m.lastSeen)
		switch {
		case m.State == Alive && silent > n.cfg.SuspectAfter:
			m.State = Suspect
			n.transition(m.Name, Alive, Suspect)
		case m.State == Suspect && silent > n.cfg.DeadAfter:
			m.State = Dead
			n.transition(m.Name, Suspect, Dead)
		}
	}
	after := servingSignature(n.servingLocked())
	changed := before != after
	var serving []Member
	if changed {
		serving = n.servingLocked()
	}
	n.mu.Unlock()
	n.setStateGauges()
	if changed && n.cfg.OnChange != nil {
		n.cfg.OnChange(serving)
	}
}

// transition records one state change (caller holds the lock).
func (n *Node) transition(name string, from, to State) {
	n.cfg.Metrics.Counter("boundary_membership_transitions_total",
		"Member state transitions observed, by destination state.", "to", to.String()).Inc()
	n.logf("member transition", "member", name, "from", from.String(), "to", to.String())
}

// setStateGauges publishes the per-state member counts.
func (n *Node) setStateGauges() {
	if n.cfg.Metrics == nil {
		return
	}
	n.mu.Lock()
	counts := make(map[State]int)
	for _, m := range n.members {
		counts[m.State]++
	}
	n.mu.Unlock()
	for _, s := range []State{Alive, Suspect, Dead, Left} {
		n.cfg.Metrics.Gauge("boundary_membership_members",
			"Known cluster members, by state.", "state", s.String()).Set(float64(counts[s]))
	}
}

// servingSignature fingerprints a serving set by name, addr and state: the
// identity the ring cares about plus whether the router routes to it.
func servingSignature(members []Member) string {
	var b strings.Builder
	for _, m := range members {
		b.WriteString(m.Name)
		b.WriteByte('|')
		b.WriteString(m.Addr)
		b.WriteByte('|')
		b.WriteString(m.State.String())
		b.WriteByte(';')
	}
	return b.String()
}

// trace starts a membership trace fragment, or a no-op one when tracing is
// off (obs trace methods are nil-safe).
func (n *Node) trace(name string) *obs.Trace {
	if n.cfg.Traces == nil {
		return nil
	}
	t := obs.NewTrace()
	t.SetRoot(n.cfg.Service, name)
	return t
}

func (n *Node) logf(msg string, args ...any) {
	if n.cfg.Logger == nil {
		return
	}
	n.cfg.Logger.Info("membership: "+msg, append([]any{"node", n.cfg.Name}, args...)...)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
