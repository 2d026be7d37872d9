package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// fingerprint is the routing key — the same sha256 the replicas use as their
// result-cache key (httpapi.RequestFingerprint), which is what makes routing
// cache-affine.
type fingerprint = [sha256.Size]byte

// Sentinel routing failures. errBusy answers 429 at the edge; every other
// routing failure answers 503.
var (
	errBusy    = errors.New("cluster: every reachable peer's queue is full")
	errNoPeers = errors.New("cluster: no healthy peers in the rotation")
)

// Forward routes one discover document — its /v1/discover request body,
// keyed by its httpapi.RequestFingerprint — to the peer owning the key and
// returns that peer's status and body verbatim. It is what a fleet node's
// httpapi.Config.Forward calls for every discover document. The interactive
// discipline (bulk false) sheds a full queue and hedges a slow primary; the
// bulk one, for batch documents and stream lines, waits for queue slots and
// retries whole preference-order passes with the bulk engine's backoff,
// attempts counting the passes. A non-nil err is a routing failure; status
// is then 429 when every reachable peer's queue was full and 503 otherwise.
// Routing spans go onto the trace in ctx.
func (r *Router) Forward(ctx context.Context, key [sha256.Size]byte, body []byte, bulk bool) (status int, resp []byte, attempts int, err error) {
	if bulk {
		status, resp, attempts, err = r.routeWithRetry(ctx, key, body)
	} else {
		status, resp, err = r.doDiscover(ctx, key, body)
		attempts = 1
	}
	switch {
	case errors.Is(err, errBusy):
		status = http.StatusTooManyRequests
	case err != nil:
		status = http.StatusServiceUnavailable
	}
	return status, resp, attempts, err
}

// preference returns peer indices (into v.peers) in routing order for key:
// the ring's clockwise order, with one adjustment — when a past hedge for
// this key was won by another peer, that winner is promoted to the front
// (its cache holds the result; the natural primary was slow last time).
// Winners are remembered by name, not index: membership churn renumbers the
// peer slice, and a stale name simply fails the view lookup and is ignored.
func (r *Router) preference(v *routerView, key fingerprint) []int {
	order := v.ring.order(key)
	if name, ok := r.winners.Get(key); ok {
		if w, ok := v.index[name]; ok && w != order[0] && v.peers[w].healthy() {
			out := make([]int, 0, len(order))
			out = append(out, w)
			for _, p := range order {
				if p != w {
					out = append(out, p)
				}
			}
			return out
		}
	}
	return order
}

// attempt runs one request against one peer: queue slot, fault hooks, the
// wire call, per-peer metrics, and a per-hop trace span. blocking selects
// backpressure (wait for a slot) over shedding (errBusy when the queue is
// full) — bulk documents block, the interactive path and hedges never do.
// The attempt ends, with errSuspected, as soon as membership suspects the
// peer: its wait for a slot and its wire call both run under the peer's
// live context as well as ctx.
func (r *Router) attempt(ctx context.Context, v *routerView, idx int, body []byte, blocking bool) (int, []byte, error) {
	ps := v.peers[idx]
	name := ps.peer.Name()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	defer context.AfterFunc(ps.liveContext(), func() { cancel(errSuspected) })()

	if blocking {
		if !ps.acquire(ctx) {
			return 0, nil, attemptErr(ctx, ctx.Err())
		}
	} else if !ps.tryAcquire() {
		r.counter("boundary_cluster_shed_total",
			"Peer attempts not made because the peer's queue was full, by peer.",
			"peer", name).Inc()
		return 0, nil, errBusy
	}
	// Inc/Dec rather than setting this record's own depth: when AddPeer
	// replaces a same-name peer, attempts on the old and the new record share
	// this one series, and a late attempt on the old record must not
	// overwrite the new record's count with its own.
	gauge := r.queueGauge(name)
	gauge.Inc()
	defer func() {
		ps.release()
		gauge.Dec()
	}()

	// The hop span opens before the wire call and its identity is injected
	// into the outgoing context, so a remote member's trace fragment (sent
	// via the traceparent header by HTTPPeer.Do) nests under this exact hop
	// — including each side of a hedge race separately.
	tr := obs.TraceFrom(ctx)
	span := tr.StartSpan("cluster/peer/" + name)
	if span != nil {
		ctx = obs.ContextWithSpanContext(ctx, tr.ChildContext(span))
	}

	if err := r.cfg.Faults.FireCtx(ctx, "cluster/peer"); err != nil {
		err = attemptErr(ctx, err)
		r.finishAttempt(name, 0, 0, err, span)
		return 0, nil, err
	}
	if err := r.cfg.Faults.FireCtx(ctx, "cluster/peer/"+name); err != nil {
		err = attemptErr(ctx, err)
		r.finishAttempt(name, 0, 0, err, span)
		return 0, nil, err
	}

	start := time.Now()
	status, resp, err := ps.peer.Do(ctx, body)
	if err != nil || status != http.StatusOK {
		// A LocalPeer answers an attempt cut short with its node's own 503
		// rather than an error; suspicion makes either one errSuspected.
		err = attemptErr(ctx, err)
	}
	r.finishAttempt(name, status, time.Since(start), err, span)
	if err != nil {
		return 0, nil, err
	}
	return status, resp, nil
}

// attemptErr reports an attempt that membership suspicion cut short as
// errSuspected, whatever error or answer the cut surfaced as, so it
// reroutes without being mistaken for the caller giving up or for the
// peer's verdict on the document.
func attemptErr(ctx context.Context, err error) error {
	if errors.Is(context.Cause(ctx), errSuspected) {
		return errSuspected
	}
	return err
}

// finishAttempt records one attempt's metrics and trace span. A transport
// failure reroutes its request but leaves the peer in the rotation: only
// membership suspicion moves it out (Router.SetSuspect). A transport
// failure caused by our own context ending (a lost hedge race, a hung-up
// client) says nothing about the peer and is counted separately, as is an
// attempt that suspicion of the peer ended.
func (r *Router) finishAttempt(name string, status int, elapsed time.Duration, err error, span *obs.Span) {
	outcome := "ok"
	switch {
	case errors.Is(err, errSuspected):
		outcome = "suspected"
	case err != nil && ctxRelated(err):
		outcome = "canceled"
	case err != nil:
		outcome = "transport"
	case status >= 500:
		outcome = "error"
	}
	r.counter("boundary_cluster_requests_total",
		"Requests routed to peers, by peer and outcome.",
		"peer", name, "outcome", outcome).Inc()
	r.cfg.Metrics.Histogram("boundary_cluster_peer_request_seconds",
		"Peer round-trip latency in seconds, by peer.", nil,
		"peer", name).Observe(elapsed.Seconds())
	if span != nil {
		span.End()
		span.Attr("peer", name).Attr("outcome", outcome)
		if err == nil {
			span.Attr("status", strconv.Itoa(status))
		}
		if outcome == "transport" || outcome == "error" {
			span.SetStatus(obs.StatusError)
		}
	}
}

// ctxRelated reports whether err stems from a canceled or expired context.
func ctxRelated(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// attemptResult is one peer attempt's outcome in the hedged race.
type attemptResult struct {
	idx    int // index into the live candidate list
	status int
	body   []byte
	err    error
}

// doDiscover routes one interactive discover request: the primary (the key's
// ring owner, or a remembered hedge winner) is tried first; if it has not
// answered within HedgeAfter a hedged second attempt races it on the next
// peer and the first answer wins; transport failures, suspicion and full
// queues fall through the rest of the preference order. Peer response bytes
// are returned verbatim — the router adds no serialization of its own.
func (r *Router) doDiscover(ctx context.Context, key fingerprint, body []byte) (int, []byte, error) {
	if err := r.cfg.Faults.FireCtx(ctx, "cluster/route"); err != nil {
		return 0, nil, err
	}
	// One view snapshot serves the whole hedged race; a membership change
	// mid-race is picked up by the caller's next request or retry pass.
	v := r.snapshot()
	prefs := r.preference(v, key)
	live := make([]int, 0, len(prefs))
	for _, idx := range prefs {
		if v.peers[idx].healthy() {
			live = append(live, idx)
		}
	}
	if len(live) == 0 {
		return 0, nil, errNoPeers
	}
	obs.TraceFrom(ctx).Add("cluster/route", 0,
		"primary", v.peers[live[0]].peer.Name(),
		"candidates", strconv.Itoa(len(live)))

	// Attempts run under their own cancel so the losing side of a hedge race
	// stops as soon as a winner returns.
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, len(live))
	launch := func(i int) {
		go func() {
			status, resp, err := r.attempt(actx, v, live[i], body, false)
			results <- attemptResult{idx: i, status: status, body: resp, err: err}
		}()
	}
	launch(0)
	next, inFlight := 1, 1
	hedgeIdx := -1

	var hedgeC <-chan time.Time
	if r.cfg.HedgeAfter > 0 && len(live) > 1 {
		t := time.NewTimer(r.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	busy := 0
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if next >= len(live) {
				break
			}
			if err := r.cfg.Faults.FireCtx(actx, "cluster/hedge"); err != nil {
				break // an armed fault suppresses the hedge
			}
			r.counter("boundary_cluster_hedges_fired_total",
				"Hedged second attempts launched because the primary was slow.").Inc()
			hedgeIdx = next
			launch(next)
			next++
			inFlight++
		case res := <-results:
			inFlight--
			if res.err == nil {
				if res.idx == hedgeIdx {
					r.counter("boundary_cluster_hedges_won_total",
						"Hedged second attempts that answered before the primary.").Inc()
					r.winners.Add(key, v.peers[live[res.idx]].peer.Name())
				}
				return res.status, res.body, nil
			}
			if errors.Is(res.err, errBusy) {
				busy++
			} else if !ctxRelated(res.err) {
				lastErr = res.err
			}
			// Fall through the preference order: the failed slot is replaced
			// by the next untried candidate.
			if next < len(live) {
				r.counter("boundary_cluster_reroutes_total",
					"Requests rerouted to another peer after a failed attempt.").Inc()
				launch(next)
				next++
				inFlight++
			} else if inFlight == 0 {
				if lastErr == nil && busy > 0 {
					return 0, nil, errBusy
				}
				if lastErr == nil {
					lastErr = errors.New("every attempt was canceled")
				}
				return 0, nil, fmt.Errorf("cluster: discovery failed on all %d live peers: %w", len(live), lastErr)
			}
		}
	}
}

// routeBlocking routes one bulk document: walk the preference order with
// blocking queue acquisition (backpressure, not shedding), return the first
// peer answer, and fall through on transport failures and suspicion.
func (r *Router) routeBlocking(ctx context.Context, key fingerprint, body []byte) (int, []byte, error) {
	if err := r.cfg.Faults.FireCtx(ctx, "cluster/route"); err != nil {
		return 0, nil, err
	}
	// Each blocking pass routes against a fresh view, so a retry after a
	// membership change sees the rebalanced ring.
	v := r.snapshot()
	tried := 0
	var lastErr error
	for _, idx := range r.preference(v, key) {
		if !v.peers[idx].healthy() {
			continue
		}
		if tried > 0 {
			r.counter("boundary_cluster_reroutes_total",
				"Requests rerouted to another peer after a failed attempt.").Inc()
		}
		tried++
		status, resp, err := r.attempt(ctx, v, idx, body, true)
		if err == nil {
			return status, resp, nil
		}
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		lastErr = err
	}
	if tried == 0 {
		return 0, nil, errNoPeers
	}
	return 0, nil, fmt.Errorf("cluster: discovery failed on all %d live peers: %w", tried, lastErr)
}

// routeWithRetry wraps routeBlocking in the bulk engine's retry/backoff
// policy, covering the transient window where a peer died but membership has
// not suspected it yet (each pass falls through to the dead peer's ring
// successor). The backoff jitter is seeded from the key, so one document's
// retries are reproducible. attempts is reported so stream outcomes can
// carry the engine's Attempts field.
func (r *Router) routeWithRetry(ctx context.Context, key fingerprint, body []byte) (status int, resp []byte, attempts int, err error) {
	maxAttempts := retryPolicy.Attempts()
	seq := int(binary.BigEndian.Uint32(key[:4]))
	for attempt := 1; ; attempt++ {
		status, resp, err = r.routeBlocking(ctx, key, body)
		if err == nil || ctx.Err() != nil || attempt >= maxAttempts {
			return status, resp, attempt, err
		}
		r.counter("boundary_cluster_retries_total",
			"Whole-preference-order routing passes retried with backoff.").Inc()
		timer := time.NewTimer(retryPolicy.Backoff(seq, attempt))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return 0, nil, attempt, ctx.Err()
		}
	}
}
