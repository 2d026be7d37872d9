package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// MaxPeerResponseBytes bounds one peer response body. It is deliberately
// larger than httpapi.MaxBodyBytes: a discovery response carries rankings and
// scores on top of what the request carried.
const MaxPeerResponseBytes = 32 << 20

// Peer is one backend replica the router can send discovery traffic to.
// Implementations must be safe for concurrent use; the router issues
// overlapping Do calls (scatter-gather, hedges) against the same peer.
type Peer interface {
	// Name identifies the peer in metrics, logs, and trace spans — and seeds
	// its consistent-hash ring points, so it must be unique and stable across
	// restarts for cache affinity to survive.
	Name() string
	// Do issues one POST of a JSON body to the peer and returns the HTTP
	// status with the full response body. A non-nil error means the peer was
	// not reached (transport failure); peer-side failures come back as
	// status/body.
	Do(ctx context.Context, path string, body []byte) (status int, resp []byte, err error)
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

// Do posts body to the peer and reads the whole response. When the context
// carries a span context (the router's hop span), it is injected as a W3C
// traceparent header so the peer's trace fragment joins the same trace.
func (p *HTTPPeer) Do(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
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

// LocalPeer is an in-process replica: a full single-node handler (its own
// result cache, its own limits) invoked by direct method call instead of a
// network hop. A cmd/serve node routes its own share of the ring to its own
// handler through one of these; tests build whole in-process fleets from
// them.
type LocalPeer struct {
	name string
	h    http.Handler
}

// NewLocalPeer wraps a handler (normally httpapi.NewHandler output) as a
// peer named name.
func NewLocalPeer(name string, h http.Handler) *LocalPeer {
	return &LocalPeer{name: name, h: h}
}

// Name returns the replica's configured name.
func (p *LocalPeer) Name() string { return p.name }

// Do runs one in-memory round trip through the replica's handler. Like the
// HTTP transport, it propagates trace context via the traceparent header —
// the replica's middleware reads headers, not context values, so local and
// remote replicas stitch traces identically. A panic in the handler becomes
// an error, which is what an HTTPPeer sees when a remote server's
// per-connection recover aborts the connection: the handler runs on the
// router's attempt goroutine, where net/http's recover does not reach, and
// an unrecovered panic there would kill the whole node.
func (p *LocalPeer) Do(ctx context.Context, path string, body []byte) (status int, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://cluster.local"+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc := obs.SpanContextFromContext(ctx); sc.Valid() {
		req.Header.Set(obs.TraceparentHeader, sc.Header())
	}
	defer func() {
		if v := recover(); v != nil {
			status, resp, err = 0, nil, fmt.Errorf("cluster: %s handler panicked: %v", p.name, v)
		}
	}()
	w := newMemWriter()
	p.h.ServeHTTP(w, req)
	return w.status(), w.buf.Bytes(), nil
}

// ScrapeMetrics runs GET /metrics through the replica's handler.
func (p *LocalPeer) ScrapeMetrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://cluster.local/metrics", nil)
	if err != nil {
		return nil, err
	}
	w := newMemWriter()
	p.h.ServeHTTP(w, req)
	if w.status() != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s /metrics answered %d", p.name, w.status())
	}
	return w.buf.Bytes(), nil
}

// memWriter is the minimal in-memory http.ResponseWriter behind LocalPeer —
// a buffer, not a socket, so a local hop costs no serialization beyond the
// JSON bodies themselves.
type memWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func newMemWriter() *memWriter {
	return &memWriter{header: make(http.Header)}
}

func (w *memWriter) Header() http.Header { return w.header }

func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(b)
}

func (w *memWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// peerState pairs a Peer with the router-side serving state: the bounded
// per-peer queue (a semaphore — slots held for the duration of an attempt)
// and whether membership suspects the peer (Router.SetSuspect).
type peerState struct {
	peer    Peer
	slots   chan struct{}
	suspect atomic.Bool // true while the peer is out of the rotation
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
