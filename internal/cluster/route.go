package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// fingerprint is the routing key — the same sha256 the replicas use as their
// result-cache key (httpapi.RequestFingerprint), which is what makes routing
// cache-affine.
type fingerprint = [sha256.Size]byte

// Sentinel routing failures. errBusy and errNoPeers map to distinct statuses
// at the edge (429 vs 503); everything else surfaces as 502-flavored 503s.
var (
	errBusy    = errors.New("cluster: every reachable peer's queue is full")
	errNoPeers = errors.New("cluster: no healthy peers in the rotation")
)

// discoverEnvelope mirrors the single-node request envelope field-for-field;
// the router decodes it only to derive the routing key and to replicate
// validation, never to re-serialize — request bytes are forwarded verbatim.
type discoverEnvelope struct {
	HTML          string   `json:"html,omitempty"`
	XML           string   `json:"xml,omitempty"`
	Ontology      string   `json:"ontology,omitempty"`
	SeparatorList []string `json:"separator_list,omitempty"`
}

// routingKey derives the consistent-hash key for one discover request body.
// A well-formed request hashes exactly like the replica's cache key; a
// malformed one (the replica will answer 400) hashes its raw bytes — any
// stable route is fine for an error.
func routingKey(body []byte) fingerprint {
	var env discoverEnvelope
	if err := json.Unmarshal(body, &env); err != nil ||
		(env.HTML == "") == (env.XML == "") {
		return sha256.Sum256(body)
	}
	mode, doc := "html", env.HTML
	if env.XML != "" {
		mode, doc = "xml", env.XML
	}
	return httpapi.RequestFingerprint(mode, doc, env.Ontology, env.SeparatorList)
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
// wire call, per-peer metrics, and a per-hop trace span. blocking selects backpressure (wait for a slot) over shedding
// (errBusy when the queue is full) — batch/stream fan-out blocks, the
// interactive path and hedges never do.
func (r *Router) attempt(ctx context.Context, v *routerView, idx int, path string, body []byte, blocking bool) (int, []byte, error) {
	ps := v.peers[idx]
	name := ps.peer.Name()
	if blocking {
		if !ps.acquire(ctx) {
			return 0, nil, ctx.Err()
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
	// into the outgoing context, so the replica's own trace fragment (sent
	// via the traceparent header by Peer.Do) nests under this exact hop —
	// including each side of a hedge race separately.
	tr := obs.TraceFrom(ctx)
	span := tr.StartSpan("cluster/peer/" + name)
	if span != nil {
		ctx = obs.ContextWithSpanContext(ctx, tr.ChildContext(span))
	}

	if err := r.cfg.Faults.FireCtx(ctx, "cluster/peer"); err != nil {
		r.finishAttempt(name, path, 0, 0, err, span)
		return 0, nil, err
	}
	if err := r.cfg.Faults.FireCtx(ctx, "cluster/peer/"+name); err != nil {
		r.finishAttempt(name, path, 0, 0, err, span)
		return 0, nil, err
	}

	start := time.Now()
	status, resp, err := ps.peer.Do(ctx, path, body)
	r.finishAttempt(name, path, status, time.Since(start), err, span)
	if err != nil {
		return 0, nil, err
	}
	return status, resp, nil
}

// finishAttempt records one attempt's metrics and trace span. A transport
// failure reroutes its request but leaves the peer in the rotation: only
// membership suspicion moves it out (Router.SetSuspect). A transport
// failure caused by our own context ending (a lost hedge race, a hung-up
// client) says nothing about the peer and is counted separately.
func (r *Router) finishAttempt(name, path string, status int, elapsed time.Duration, err error, span *obs.Span) {
	outcome := "ok"
	switch {
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
		span.Attr("peer", name).Attr("path", path).Attr("outcome", outcome)
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
// peer and the first answer wins; transport failures and full queues fall
// through the rest of the preference order. Peer response bytes are returned
// verbatim — the router adds no serialization of its own.
func (r *Router) doDiscover(ctx context.Context, key fingerprint, path string, body []byte) (int, []byte, error) {
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
			status, resp, err := r.attempt(actx, v, live[i], path, body, false)
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

// routeBlocking routes one batch/stream document: walk the preference order
// with blocking queue acquisition (backpressure, not shedding), return the
// first peer answer, and fall through on transport failures.
func (r *Router) routeBlocking(ctx context.Context, key fingerprint, path string, body []byte) (int, []byte, error) {
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
		status, resp, err := r.attempt(ctx, v, idx, path, body, true)
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
// successor). attempts
// is reported so stream outcomes can carry the engine's Attempts field.
func (r *Router) routeWithRetry(ctx context.Context, seq int, key fingerprint, path string, body []byte) (status int, resp []byte, attempts int, err error) {
	maxAttempts := retryPolicy.Attempts()
	for attempt := 1; ; attempt++ {
		status, resp, err = r.routeBlocking(ctx, key, path, body)
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

// handleDiscover is the interactive routed endpoint. Validation errors the
// single node reports before running the pipeline (oversized body) are
// replicated here with identical wording; everything else — including bad
// request bodies — is answered by the peer so responses stay byte-identical.
func (r *Router) handleDiscover(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	// The query string is forwarded verbatim (?explain=1 is computed by the
	// replica, never by the router) but does not join the routing key, so an
	// explain request lands on the same cache-affine peer as its plain twin.
	path := "/v1/discover"
	if req.URL.RawQuery != "" {
		path += "?" + req.URL.RawQuery
	}
	status, resp, err := r.doDiscover(req.Context(), routingKey(body), path, body)
	if err != nil {
		writeRouteErr(w, err)
		return
	}
	writeRaw(w, status, resp)
}

// readBody reads one request body under the single-node size envelope,
// answering the same 413 the replica would.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, httpapi.MaxBodyBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	if len(body) > httpapi.MaxBodyBytes {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", httpapi.MaxBodyBytes))
		return nil, false
	}
	return body, true
}

// writeRaw relays a peer response verbatim.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// errorBody matches the single-node uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON mirrors the single-node encoder (one compact line) so
// router-originated bodies render like every other body in the system.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeRouteErr maps a routing failure to its edge status: saturation is
// 429 + Retry-After (the load-shedding contract), everything else — no
// healthy peers, all attempts failed, canceled — is 503.
func writeRouteErr(w http.ResponseWriter, err error) {
	if errors.Is(err, errBusy) {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, err)
}
