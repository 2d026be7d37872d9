package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// MaxPeerResponseBytes bounds one peer response body. It is deliberately
// larger than httpapi.MaxBodyBytes: a discovery response carries rankings and
// scores on top of what the request carried.
const MaxPeerResponseBytes = 32 << 20

// Peer is one backend replica the router can send discovery traffic to.
// Implementations must be safe for concurrent use; the router issues
// overlapping Do calls (bulk documents, hedges) against the same peer.
type Peer interface {
	// Name identifies the peer in metrics, logs, and trace spans — and seeds
	// its consistent-hash ring points, so it must be unique and stable across
	// restarts for cache affinity to survive.
	Name() string
	// Do asks the peer to answer one /v1/discover request body and returns
	// the HTTP status with the full response body. A non-nil error means
	// the peer was not reached (transport failure); peer-side failures come
	// back as status/body. Do must return once ctx ends.
	Do(ctx context.Context, body []byte) (status int, resp []byte, err error)
	// ScrapeMetrics returns the peer's GET /metrics exposition for the
	// /metrics/cluster federation.
	ScrapeMetrics(ctx context.Context) ([]byte, error)
}

// HTTPPeer is a remote replica speaking the existing single-node HTTP API.
type HTTPPeer struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTPPeer returns a peer named name for the service at baseURL
// (scheme://host:port, no trailing path). The name, not the URL, owns the
// peer's ring share: membership passes the stable member name, so a replica
// that rejoins on a new port keeps its ring position and its
// routing-affinity history. A nil client selects a private default client;
// pass one to control timeouts, connection pooling, or TLS.
func NewHTTPPeer(name, baseURL string, client *http.Client) *HTTPPeer {
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPPeer{
		name:   name,
		base:   strings.TrimRight(baseURL, "/"),
		client: client,
	}
}

// Name returns the peer's ring name.
func (p *HTTPPeer) Name() string { return p.name }

// Do posts body to the peer's /v1/discover and reads the whole response.
// The request carries httpapi.ForwardedHeader, so the peer answers it from
// its own cache and pipeline instead of routing it again: a hedge or
// reroute sent to a ring successor is answered by that successor. When the
// context carries a span context (the router's hop span), it is injected as
// a W3C traceparent header so the peer's trace fragment joins the same
// trace.
func (p *HTTPPeer) Do(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/v1/discover", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(httpapi.ForwardedHeader, "1")
	if sc := obs.SpanContextFromContext(ctx); sc.Valid() {
		req.Header.Set(obs.TraceparentHeader, sc.Header())
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxPeerResponseBytes+1))
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: reading response from %s: %w", p.name, err)
	}
	if len(data) > MaxPeerResponseBytes {
		return 0, nil, fmt.Errorf("cluster: response from %s exceeds the %d-byte limit", p.name, MaxPeerResponseBytes)
	}
	return resp.StatusCode, data, nil
}

// ScrapeMetrics fetches the peer's GET /metrics exposition for federation.
func (p *HTTPPeer) ScrapeMetrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxPeerResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading metrics from %s: %w", p.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s /metrics answered %d", p.name, resp.StatusCode)
	}
	return data, nil
}

// LocalPeer is the node's own share of the ring, answered by direct
// function call: discover answers one /v1/discover request body as the
// node's handler would (cmd/serve passes httpapi's (*Server).DiscoverLocal)
// and metrics is the registry its /metrics would serve. No http.Request is
// built and no middleware runs, so a document routed to its own node is
// counted, logged and traced once, by the request that carried it.
type LocalPeer struct {
	name     string
	discover func(ctx context.Context, body []byte) (status int, resp []byte)
	metrics  *obs.Registry
}

// NewLocalPeer returns the in-process peer named name.
func NewLocalPeer(name string, discover func(ctx context.Context, body []byte) (status int, resp []byte), metrics *obs.Registry) *LocalPeer {
	return &LocalPeer{name: name, discover: discover, metrics: metrics}
}

// Name returns the replica's configured name.
func (p *LocalPeer) Name() string { return p.name }

// Do calls the node's discover function. A panic in it becomes an error,
// which is what an HTTPPeer sees when a remote server's per-connection
// recover aborts the connection: the call runs on the router's attempt
// goroutine, where net/http's recover does not reach, and an unrecovered
// panic there would kill the whole node.
func (p *LocalPeer) Do(ctx context.Context, body []byte) (status int, resp []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			status, resp, err = 0, nil, fmt.Errorf("cluster: %s handler panicked: %v", p.name, v)
		}
	}()
	status, resp = p.discover(ctx, body)
	return status, resp, nil
}

// ScrapeMetrics renders the node's registry for federation.
func (p *LocalPeer) ScrapeMetrics(context.Context) ([]byte, error) {
	var buf bytes.Buffer
	err := p.metrics.WritePrometheus(&buf)
	return buf.Bytes(), err
}

// errSuspected ends the attempts in flight to a peer that membership has
// just suspected; they reroute like any failed attempt.
var errSuspected = errors.New("cluster: peer turned suspect during the attempt")

// peerState pairs a Peer with the router-side serving state: the bounded
// per-peer queue (a semaphore — slots held for the duration of an attempt)
// and whether membership suspects the peer (Router.SetSuspect).
type peerState struct {
	peer    Peer
	slots   chan struct{}
	suspect atomic.Bool // true while the peer is out of the rotation

	mu sync.Mutex
	// live spans the peer's current stay in the rotation: it ends, with
	// cause errSuspected, when the peer turns suspect, and every attempt
	// runs under it.
	live    context.Context
	endLive context.CancelCauseFunc
}

func newPeerState(p Peer, queueDepth int) *peerState {
	ps := &peerState{peer: p, slots: make(chan struct{}, queueDepth)}
	ps.live, ps.endLive = context.WithCancelCause(context.Background())
	return ps
}

// setSuspect moves the peer out of or back into the rotation and reports
// whether that changed anything. Turning suspect ends the attempts in
// flight; readmission starts a new live context.
func (p *peerState) setSuspect(suspect bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.suspect.CompareAndSwap(!suspect, suspect) {
		return false
	}
	if suspect {
		p.endLive(errSuspected)
	} else {
		p.live, p.endLive = context.WithCancelCause(context.Background())
	}
	return true
}

// liveContext returns the context of the peer's current stay in the
// rotation.
func (p *peerState) liveContext() context.Context {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// tryAcquire takes a queue slot without waiting; it reports false when the
// peer's queue is full (the caller reroutes or propagates 429).
func (p *peerState) tryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquire waits for a queue slot — the backpressure mode batch and stream
// fan-out use, where throttling beats shedding. It reports false only when
// ctx ends first.
func (p *peerState) acquire(ctx context.Context) bool {
	select {
	case p.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// release returns a queue slot.
func (p *peerState) release() { <-p.slots }

// healthy reports whether the peer is in the rotation.
func (p *peerState) healthy() bool { return !p.suspect.Load() }
