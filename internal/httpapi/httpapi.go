// Package httpapi exposes the record-boundary pipeline as a JSON HTTP
// service: boundary discovery, record splitting, full extraction, and
// document classification. It is the deployment surface a crawler fleet
// would call; cmd/serve wires it to a listener.
//
// Endpoints (all POST bodies and responses are JSON):
//
//	POST /v1/discover  {html|xml, ontology?}     → separator, scores, rankings
//	POST /v1/discover/batch  {documents: [...]}   → per-document results, in order
//	POST /v1/discover/stream  NDJSON tasks        → NDJSON outcomes, streamed in order
//	POST /v1/records   {html, ontology?}          → cleaned record chunks
//	POST /v1/extract   {html, ontology}           → populated database
//	POST /v1/classify  {html, ontology}           → document kind + evidence
//	GET  /v1/ontologies                           → built-in ontology names
//	GET  /healthz                                 → ok
//	GET  /metrics                                 → Prometheus text format
//	GET  /debug/vars                              → expvar JSON
package httpapi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/certainty"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dbgen"
	"repro/internal/faultinject"
	"repro/internal/htmlparse"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/pipeline"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// MaxBodyBytes bounds request bodies; 1998-era pages were tens of
// kilobytes, and even generous modern listings fit far below this.
const MaxBodyBytes = 8 << 20

// ForwardedHeader marks a /v1/discover request that one fleet member sent
// another (cluster.HTTPPeer sets it). The receiving member answers it from
// its own cache and pipeline and never forwards it again: the sender has
// already chosen this member, as the owner, a hedge or a reroute.
const ForwardedHeader = "X-Boundary-Forwarded"

// Config carries the service's observability sinks and serving-layer
// tuning. The zero value is valid: a nil Logger disables request logging, a
// nil Metrics disables metric collection (the /metrics endpoint then serves
// an empty exposition), a zero CacheSize disables the result cache, and a
// zero BatchWorkers sizes the batch pool to GOMAXPROCS.
type Config struct {
	// Logger receives one structured "request" record per served request.
	Logger *slog.Logger
	// Metrics collects HTTP middleware metrics and is threaded into the
	// pipeline via core.Options, so /metrics shows per-stage and
	// per-heuristic counters alongside the per-route HTTP series.
	Metrics *obs.Registry
	// CacheSize bounds the discovery result cache (entries). Repeated
	// /v1/discover (and batch) requests for an identical document and
	// options are answered from the cache; hits, misses, and evictions
	// surface as boundary_cache_* metrics. Zero or negative disables it.
	// The cache is memory-only: the wrapper store (Templates) is a node's
	// durable serving state and brings a restarted node back warm.
	CacheSize int
	// BatchWorkers bounds how many documents one /v1/discover/batch request
	// processes concurrently. Zero or negative selects GOMAXPROCS.
	BatchWorkers int
	// MaxInFlight bounds concurrently-processing /v1/ requests; excess
	// requests are shed with 429 + Retry-After (and counted in
	// boundary_requests_shed_total). Zero or negative disables shedding.
	MaxInFlight int
	// RequestTimeout bounds one /v1/ request's processing; an expired
	// request stops mid-pipeline and answers 503. Zero disables it.
	RequestTimeout time.Duration
	// Limits bounds per-document parse resources (document bytes beyond
	// the MaxBodyBytes envelope cap, tag-tree depth, node count); exceeded
	// limits answer 413/422. The zero value imposes no limits.
	Limits tagtree.Limits
	// Faults is the test-only fault-injection hook set threaded into the
	// pipeline (see internal/faultinject); nil in production.
	Faults *faultinject.Set
	// Traces enables distributed tracing: every request gets (or continues,
	// via its W3C traceparent header) a trace whose finished fragment is
	// published here, and GET /debug/traces serves the store. Nil disables
	// tracing.
	Traces *obs.TraceStore
	// Service names this process in trace fragments ("local-0", ...); empty
	// means "boundary".
	Service string
	// Templates, if non-nil, enables the learned-wrapper fast path: HTML
	// discover requests are fingerprinted before any parsing and served
	// straight from the store on a hit; misses learn the discovered
	// answer. The store also backs GET /v1/template/stats. A fleet node's
	// store holds only what this node learned. See docs/WRAPPER.md.
	Templates *template.Store
	// Membership, if non-nil, mounts this node's gossip surface: POST
	// /v1/cluster/gossip (and /v1/cluster/join, its alias) exchange views,
	// GET /v1/cluster/members serves the member table. Membership routes
	// bypass load shedding and the request timeout so a saturated replica
	// keeps heartbeating. See docs/SCALING.md.
	Membership *membership.Node
	// Forward, if non-nil, makes this a fleet node's handler: every
	// discover document (a /v1/discover request, one /v1/discover/batch
	// document, one /v1/discover/stream line) goes to the member owning it
	// instead of to this node's cache and pipeline. key is the document's
	// RequestFingerprint and body its request envelope, which the callee
	// may keep reading after the request ends; bulk selects the batch
	// discipline (waiting for queue slots, retry passes) over the
	// interactive one. The answer is the member's status and body, and
	// attempts counts the routing passes. A non-nil err is a routing
	// failure, answered 429 with Retry-After when status is 429 and 503
	// otherwise. ?explain=1 and a /v1/discover carrying ForwardedHeader
	// are always answered here. cmd/serve passes
	// (*cluster.Router).Forward; the router reaches this node's own share
	// of the ring through Server.DiscoverLocal. See docs/SCALING.md.
	Forward func(ctx context.Context, key [sha256.Size]byte, body []byte, bulk bool) (status int, resp []byte, attempts int, err error)
}

// server binds the handlers to one Config.
type server struct {
	cfg      Config
	cache    *resultCache
	onts     *ontology.Cache
	inflight chan struct{} // nil when shedding is off; else a semaphore
}

// ontologyCacheBytes bounds the inline DSL ontology sources a handler keeps
// parsed, with their compiled rules, across requests.
const ontologyCacheBytes = 1 << 20

// NewHandler returns the full service handler: the routing table wrapped in
// load shedding + request timeout (for /v1/ routes) and request-logging +
// metrics middleware, plus GET /metrics and GET /debug/vars.
func NewHandler(cfg Config) http.Handler {
	srv, _ := NewServer(cfg) // cannot fail
	return srv
}

// Server is the full service handler, plus DiscoverLocal, the fleet
// router's direct way into the node's own share of the ring.
type Server struct {
	http.Handler
	local server // the discover path with forwarding off
}

// Close releases the server's resources. It holds none that need
// releasing, so Close returns nil.
func (s *Server) Close() error { return nil }

// NewServer is NewHandler returning the *Server, for callers that need
// DiscoverLocal. Its error is always nil.
func NewServer(cfg Config) (*Server, error) {
	s := server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheSize, cfg.Metrics),
		onts:  &ontology.Cache{MaxBytes: ontologyCacheBytes},
	}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	mux := newMux(s)
	mux.Handle("GET /metrics", cfg.Metrics.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	var tracing *obs.Tracing
	if cfg.Traces != nil {
		mux.Handle("GET /debug/traces", cfg.Traces.Handler())
		tracing = &obs.Tracing{Store: cfg.Traces, Service: cfg.Service}
	}
	route := func(r *http.Request) string {
		_, pattern := mux.Handler(r)
		return pattern
	}
	// Shedding sits inside the observability middleware so shed requests
	// still show up in the request log and the per-route HTTP metrics.
	h := obs.Middleware(s.limit(mux), cfg.Logger, cfg.Metrics, route, tracing)
	local := s
	local.cfg.Forward = nil
	return &Server{Handler: h, local: local}, nil
}

// DiscoverLocal answers one /v1/discover request body from this node's
// own result cache and pipeline, even when Config.Forward is set: it is the
// fleet router's direct call into the node's share of the ring. It returns
// the status and body /v1/discover would write. No middleware runs, so the
// document is counted and logged once, by the request that carried it,
// and its spans land on the trace in ctx.
func (s *Server) DiscoverLocal(ctx context.Context, body []byte) (status int, resp []byte) {
	buf := requestBuffers.Get().(*requestBuffer)
	req, apiErr := decodeEnvelope(&buf.dec, body, nil)
	requestBuffers.Put(buf)
	if apiErr != nil {
		return apiErr.status, errorJSON(apiErr.err)
	}
	resp, apiErr = s.local.discoverOne(ctx, req, nil, false)
	req.release() // resp is encoded bytes: nothing views the document now
	if apiErr != nil {
		return apiErr.status, errorJSON(apiErr.err)
	}
	return http.StatusOK, resp
}

// limit wraps next with the serving-layer protections for /v1/ routes: a
// bounded in-flight semaphore that sheds excess load with 429 + Retry-After,
// and a per-request processing deadline. Non-API paths (/healthz, /metrics,
// /debug/...) bypass both so the service stays observable while saturated.
func (s server) limit(next http.Handler) http.Handler {
	if s.inflight == nil && s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// /v1/cluster/ is membership traffic: shedding or timing out a
		// heartbeat under load would read as a dead peer and flap the ring,
		// so it bypasses both protections like the non-API paths do.
		if !strings.HasPrefix(r.URL.Path, "/v1/") || strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
			next.ServeHTTP(w, r)
			return
		}
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.cfg.Metrics.Counter("boundary_requests_shed_total",
					"Requests rejected with 429 because the in-flight limit was saturated.").Inc()
				writeErr(w, http.StatusTooManyRequests,
					fmt.Errorf("server is at its in-flight limit of %d requests; retry shortly", cap(s.inflight)))
				return
			}
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

func newMux(s server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/discover", s.handleDiscover)
	mux.HandleFunc("POST /v1/discover/batch", s.handleDiscoverBatch)
	mux.HandleFunc("POST /v1/discover/stream", s.handleDiscoverStream)
	mux.HandleFunc("POST /v1/records", withRequest(s.handleRecords))
	mux.HandleFunc("POST /v1/extract", withRequest(s.handleExtract))
	mux.HandleFunc("POST /v1/classify", withRequest(s.handleClassify))
	mux.HandleFunc("GET /v1/ontologies", s.handleOntologies)
	registerTemplateRoutes(mux, s)
	registerClusterRoutes(mux, s)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// pipelineOptions threads the server's metrics, resource limits, fault
// hooks, and the request's live trace (if any, from ctx) into a discovery
// call, so heuristic stage spans land on the same trace as the HTTP span.
func (s server) pipelineOptions(ctx context.Context, ont *ontology.Ontology, separatorList []string) core.Options {
	return core.Options{
		Ontology:      ont,
		SeparatorList: separatorList,
		Trace:         obs.TraceFrom(ctx),
		Metrics:       s.cfg.Metrics,
		Limits:        s.cfg.Limits,
		Faults:        s.cfg.Faults,
	}
}

// request is the shared request envelope.
type request struct {
	// HTML is the document to process; XML is its XML-mode alternative
	// (exactly one must be set for discover; records/extract/classify are
	// HTML-only).
	HTML string `json:"html,omitempty"`
	XML  string `json:"xml,omitempty"`
	// Ontology is a built-in name ("obituary", "carad", "jobad", "course")
	// or full DSL source (detected by the presence of a newline).
	Ontology string `json:"ontology,omitempty"`
	// SeparatorList optionally overrides IT's identifiable-separator list.
	SeparatorList []string `json:"separator_list,omitempty"`

	// doc is the pooled buffer HTML or XML views when the envelope
	// decoder's fast path decoded the body; nil otherwise.
	doc *[]byte
}

// release hands the document's buffer back to the pool once the reply is
// written: HTML and XML must not be read after it. Nothing a request leaves
// behind views the document — the result cache and single-flight calls
// hold encoded bodies, store entries and trace attributes are copies, and
// a forwarded envelope is a copy of the body. A handler that panics never
// reaches its release, and the buffer is left to the collector (see lead).
func (req *request) release() {
	pipeline.PutDocBuf(req.doc)
	req.doc = nil
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v as one compact line of JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // headers already sent; nothing useful to do on error
}

// writeBody writes an already encoded 200 body: one header and one write.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeErr writes the uniform error body; a 429 tells the client to retry
// in a second.
func writeErr(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// errorJSON encodes the uniform error body, newline included.
func errorJSON(err error) []byte {
	b, _ := json.Marshal(errorBody{Error: err.Error()}) // one string cannot fail
	return append(b, '\n')
}

// decodeJSON parses a JSON body into v with the body limit applied,
// answering 400 on malformed input and 413 when the body exceeds
// MaxBodyBytes. Reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if apiErr := decodeJSONFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v); apiErr != nil {
		writeErr(w, apiErr.status, apiErr.err)
		return false
	}
	return true
}

// decodeJSONFrom decodes v from an already limited body reader.
func decodeJSONFrom(body io.Reader, v any) *apiError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &apiError{http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", maxErr.Limit)}
		}
		return &apiError{http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)}
	}
	return nil
}

// requestBuffer is a pooled body buffer plus the envelope decoder's
// scratch space for decode.
type requestBuffer struct {
	body bytes.Buffer
	dec  pipeline.EnvelopeDecoder
}

// requestBuffers pools body buffers up to pipeline.MaxPooledBytes, the
// bound the document pool keeps too, so one large body does not pin its
// size class for every later request.
var requestBuffers = sync.Pool{New: func() any { return new(requestBuffer) }}

// decode parses the shared request envelope. It reads the body, under the
// MaxBodyBytes limit, into a pooled buffer and decodes it with
// decodeEnvelope; the body buffer goes back to its pool as soon as decode
// returns, so keep returns a copy of the body as well. The caller calls
// req.release once its reply is written.
func decode(w http.ResponseWriter, r *http.Request, keep bool) (req *request, body []byte, ok bool) {
	buf := requestBuffers.Get().(*requestBuffer)
	defer func() {
		if buf.body.Cap() <= pipeline.MaxPooledBytes {
			requestBuffers.Put(buf)
		}
	}()
	buf.body.Reset()
	if n := r.ContentLength; n > 0 && n <= MaxBodyBytes {
		buf.body.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	req, apiErr := decodeEnvelope(&buf.dec, buf.body.Bytes(), err)
	if apiErr != nil {
		writeErr(w, apiErr.status, apiErr.err)
		return nil, nil, false
	}
	if keep {
		body = bytes.Clone(buf.body.Bytes())
	}
	return req, body, true
}

// decodeEnvelope decodes a request envelope from a body read whole; readErr
// is the error the read stopped on, if any. It tries the envelope decoder's
// fast path, whose document views a pooled buffer (req.doc). Anything the
// fast path does not take goes to encoding/json over the same bytes,
// followed by readErr (an oversized body's *http.MaxBytesError included),
// so the reply is what decodeJSON gives: a first object that ends inside
// the limit still decodes, trailing bytes are ignored, and an overflow
// inside the object answers 413.
func decodeEnvelope(dec *pipeline.EnvelopeDecoder, body []byte, readErr error) (*request, *apiError) {
	if readErr == nil {
		if html, xml, ont, seps, doc, ok := dec.Request(body); ok {
			return &request{HTML: html, XML: xml, Ontology: ont, SeparatorList: seps, doc: doc}, nil
		}
	}
	replay := io.Reader(bytes.NewReader(body))
	if readErr != nil {
		replay = io.MultiReader(replay, errReader{readErr})
	}
	var req request
	if apiErr := decodeJSONFrom(replay, &req); apiErr != nil {
		return nil, apiErr
	}
	return &req, nil
}

// errReader replays a body read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// discoverBuffers holds the scratch buffers encodeDiscover encodes into
// before copying each body out at its exact size.
var discoverBuffers = sync.Pool{New: func() any { return new([]byte) }}

// encodeDiscover encodes r as a discover body: the /v1/discover answer as
// one compact JSON object and its newline, exactly the bytes written to
// the client. The result cache, the single-flight call and the batch share
// bodies across requests, so a body is never modified once built; its
// capacity equals its length, so an append to it always copies.
func encodeDiscover(r pipeline.Result) ([]byte, *apiError) {
	bp := discoverBuffers.Get().(*[]byte)
	defer discoverBuffers.Put(bp)
	b, err := pipeline.AppendDiscover((*bp)[:0], &r)
	*bp = b[:0]
	if err != nil {
		return nil, &apiError{http.StatusInternalServerError,
			fmt.Errorf("encoding the discovery result: %w", err)}
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

// apiError pairs a client-visible error with the HTTP status it maps to.
type apiError struct {
	status int
	err    error
}

// ctxRelated reports whether the error came from an expired or canceled
// request context (as opposed to a property of the document itself).
func ctxRelated(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// pipelineError maps a discovery-pipeline error to its HTTP status:
// resource limits are the client's fault (413 for size, 422 for structure),
// an expired deadline is the server saying "too slow right now" (503), and
// everything else — ErrNoCandidates included — stays the long-standing 422.
func pipelineError(err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{http.StatusServiceUnavailable,
			fmt.Errorf("processing deadline exceeded: %w", err)}
	case errors.Is(err, context.Canceled):
		// The client hung up; the status is written into the void, but a
		// non-2xx keeps logs and metrics honest.
		return &apiError{http.StatusServiceUnavailable,
			fmt.Errorf("request canceled: %w", err)}
	case errors.Is(err, htmlparse.ErrTooLarge):
		return &apiError{http.StatusRequestEntityTooLarge, err}
	case errors.Is(err, tagtree.ErrTooDeep), errors.Is(err, tagtree.ErrTooManyNodes):
		return &apiError{http.StatusUnprocessableEntity, err}
	default:
		return &apiError{http.StatusUnprocessableEntity, err}
	}
}

// discoverOne runs one discover request through the cache and, on a miss,
// the full pipeline — the shared path behind /v1/discover and each document
// of /v1/discover/batch. Concurrent identical requests are deduplicated:
// one leader computes while followers wait on its result (see
// resultCache.join), so a thundering herd for a hot document costs one
// pipeline run instead of N. With Config.Forward set the document goes to
// the member owning it before the cache is consulted, so an entry node
// caches nothing it forwards; envelope is the request's body, or nil to
// encode one from req, and bulk is passed on to Forward.
func (s server) discoverOne(ctx context.Context, req *request, envelope []byte, bulk bool) ([]byte, *apiError) {
	if (req.HTML == "") == (req.XML == "") {
		return nil, &apiError{http.StatusBadRequest,
			errors.New("exactly one of html or xml is required")}
	}
	mode, doc := "html", req.HTML
	if req.XML != "" {
		mode, doc = "xml", req.XML
	}
	if s.cfg.Forward != nil {
		if envelope == nil {
			envelope = encodeEnvelope(req)
		}
		body, _, apiErr := s.forward(ctx, RequestFingerprint(mode, doc, req.Ontology, req.SeparatorList), envelope, bulk)
		return body, apiErr
	}
	if s.cache == nil {
		body, _, apiErr := s.computeDiscover(ctx, mode, doc, req)
		return body, apiErr
	}
	key := RequestFingerprint(mode, doc, req.Ontology, req.SeparatorList)
	for {
		if body, ok := s.cache.get(key); ok {
			obs.TraceFrom(ctx).Add("cache/hit", 0)
			return body, nil
		}
		call, leader := s.cache.join(key)
		if leader {
			return s.lead(ctx, key, call, mode, doc, req)
		}
		s.cache.metrics.Counter("boundary_cache_inflight_dedup_total",
			"Discovery requests answered by waiting on an identical in-flight computation.").Inc()
		select {
		case <-call.done:
			if call.err != nil && ctxRelated(call.err.err) && ctx.Err() == nil {
				// The leader's own context died, not ours: its failure
				// says nothing about the document. Take another lap —
				// cache check, then leadership election.
				continue
			}
			return call.body, call.err
		case <-ctx.Done():
			return nil, pipelineError(ctx.Err())
		}
	}
}

// encodeEnvelope encodes req as the /v1/discover body a member receives.
// HTML escaping is off: json.Marshal writes each <, > and & as six bytes,
// so a markup document of about half MaxBodyBytes, accepted here, would
// pass the member's body limit.
func encodeEnvelope(req *request) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(req) // strings only; cannot fail
	return bytes.TrimSuffix(b.Bytes(), []byte{'\n'})
}

// forward sends one discover document to the member owning key through
// Config.Forward. The member's 200 body comes back verbatim; a member's
// error keeps its status and text; a routing failure answers 429 or 503 as
// the router chose.
func (s server) forward(ctx context.Context, key [sha256.Size]byte, envelope []byte, bulk bool) (body []byte, attempts int, apiErr *apiError) {
	status, resp, attempts, err := s.cfg.Forward(ctx, key, envelope, bulk)
	switch {
	case err != nil:
		if status != http.StatusTooManyRequests {
			status = http.StatusServiceUnavailable
		}
		return nil, attempts, &apiError{status, err}
	case status != http.StatusOK:
		var e errorBody
		if json.Unmarshal(resp, &e) != nil || e.Error == "" {
			e.Error = fmt.Sprintf("peer answered status %d", status)
		}
		return nil, attempts, &apiError{status, errors.New(e.Error)}
	}
	return resp, attempts, nil
}

// lead computes key's result as the single-flight leader and publishes it
// to the followers. A panicking pipeline still completes the call — with a
// 500 that is never cached — before the panic goes on to the connection's
// recover: otherwise the in-flight entry would outlive the leader, and every
// later identical request would wait on it until its own deadline, or for
// good without one. The re-panic does not hand doc's buffer back; it is
// left to the collector. The panic value may view the document (a tag
// name), and net/http's recover logs it only after every deferred call has
// run, so a buffer handed back on the way out could already hold another
// request's document by then. Followers never see doc: they get the
// call's 500.
func (s server) lead(ctx context.Context, key [sha256.Size]byte, call *inflightCall, mode, doc string, req *request) ([]byte, *apiError) {
	defer func() {
		if v := recover(); v != nil {
			s.cache.complete(key, call, nil, false, &apiError{http.StatusInternalServerError,
				fmt.Errorf("discovery panicked: %v", v)})
			panic(v)
		}
	}()
	body, degraded, apiErr := s.computeDiscover(ctx, mode, doc, req)
	s.cache.complete(key, call, body, degraded, apiErr)
	return body, apiErr
}

// computeDiscover is the cache-miss path: resolve the ontology, run the
// full pipeline under the request context, and encode the answer's body;
// degraded reports an answer computed from the surviving heuristics only.
// With a wrapper store configured, HTML documents first try the template
// fast path — a fingerprint lookup
// that skips parsing and heuristics entirely on a hit (see docs/WRAPPER.md);
// XML documents use the tree-level fast path inside core instead, because
// the raw-document scanner speaks only HTML's grammar.
func (s server) computeDiscover(ctx context.Context, mode, doc string, req *request) (body []byte, degraded bool, apiErr *apiError) {
	if s.cfg.Templates != nil && mode == "html" {
		return s.computeDiscoverTemplated(ctx, doc, req)
	}
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, _, apiErr := s.runDiscover(ctx, mode, doc, req, true, arena)
	if apiErr != nil {
		return nil, false, apiErr
	}
	body, apiErr = encodeDiscover(pipeline.NewResult(res))
	return body, res.Degraded, apiErr
}

// computeDiscoverTemplated is the document-level template fast path for HTML
// discover: fingerprint the raw bytes, serve a store hit without ever
// building the tag tree, and learn the full-pipeline answer on a miss. The
// occasional hit is spot-checked — full discovery runs anyway and divergence
// evicts and relearns the entry — so a drifted wrapper cannot serve stale
// answers forever. runDiscover is called with the core-level fast path
// disabled: the lookup already happened here, and double-counting misses (or
// re-hitting the entry this request is about to verify) would corrupt both
// the metrics and the spot-check.
func (s server) computeDiscoverTemplated(ctx context.Context, doc string, req *request) (body []byte, degraded bool, apiErr *apiError) {
	store := s.cfg.Templates
	start := time.Now()
	e, key, ok := store.LookupDocWithin(doc, template.Salt("html", req.Ontology, req.SeparatorList), s.cfg.Limits)
	if ok && !store.SpotCheck() {
		s.pipelineOptions(ctx, nil, nil).ObserveTemplateHit(time.Since(start), e)
		body, apiErr = encodeDiscover(resultFromEntry(e))
		return body, false, apiErr
	}
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, _, apiErr := s.runDiscover(ctx, "html", doc, req, false, arena)
	if apiErr != nil {
		return nil, false, apiErr
	}
	// Degraded answers are never learned: the result came from surviving
	// heuristics only (same completeness rule as the result cache).
	if !res.Degraded {
		fresh := core.NewTemplateEntry(key, res)
		if ok { // this was a spot-checked hit
			if e.Equal(fresh) {
				store.ReportSpotCheck("ok")
			} else {
				store.ReportSpotCheck("divergent")
				store.ReportDrift(key, "divergent")
			}
		}
		_ = store.Put(fresh)
	}
	body, apiErr = encodeDiscover(pipeline.NewResult(res))
	return body, res.Degraded, apiErr
}

// runDiscover runs the full pipeline and also returns the options it ran
// under, for callers (the explain path) that need the certainty table and
// combination rule that produced the result. templated enables core's
// tree-level template fast path; pass false when the caller already did its
// own store lookup (the document-level path) or must observe the real
// heuristics (explain, spot-checks). arena, when non-nil, puts the run on
// the byte-level hot path; the caller owns its lifetime and must not release
// it until it is done with the returned Result (which retains arena-owned
// tree nodes — see docs/PERFORMANCE.md).
func (s server) runDiscover(ctx context.Context, mode, doc string, req *request, templated bool, arena *tagtree.Arena) (*core.Result, core.Options, *apiError) {
	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.FireCtx(ctx, "httpapi/discover"); err != nil {
			return nil, core.Options{}, pipelineError(err)
		}
	}
	ont, err := s.onts.Resolve(req.Ontology)
	if err != nil {
		return nil, core.Options{}, &apiError{http.StatusBadRequest, err}
	}
	opts := s.pipelineOptions(ctx, ont, req.SeparatorList)
	opts.Arena = arena
	if templated {
		s.templatedOptions(&opts, mode, req.Ontology, req.SeparatorList)
	}
	var res *core.Result
	if mode == "html" {
		res, err = core.DiscoverContext(ctx, doc, opts)
	} else {
		res, err = core.DiscoverXMLContext(ctx, doc, opts)
	}
	if err != nil {
		return nil, opts, pipelineError(err)
	}
	return res, opts, nil
}

// templatedOptions arms opts with the server's wrapper store and the salt
// binding store keys to this request's answer-changing options — the same
// fields RequestFingerprint hashes, minus the document.
func (s server) templatedOptions(opts *core.Options, mode, ontologySrc string, separatorList []string) {
	if s.cfg.Templates == nil {
		return
	}
	opts.Templates = s.cfg.Templates
	opts.TemplateSalt = template.Salt(mode, ontologySrc, separatorList)
}

func (s server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Forward != nil && r.Header.Get(ForwardedHeader) != "" {
		s.cfg.Forward = nil // routed here already: answer it, as DiscoverLocal does
	}
	req, envelope, ok := decode(w, r, s.cfg.Forward != nil)
	if !ok {
		return
	}
	if r.URL.Query().Get("explain") == "1" {
		s.handleDiscoverExplain(w, r, req)
	} else if body, apiErr := s.discoverOne(r.Context(), req, envelope, false); apiErr != nil {
		writeErr(w, apiErr.status, apiErr.err)
	} else {
		writeBody(w, body)
	}
	req.release()
}

// handleDiscoverExplain is /v1/discover?explain=1: the same discovery, with
// each heuristic's certainty, decline reason, and the combination arithmetic
// attached to the response and the request's trace. It bypasses the result
// cache and the in-flight dedup on purpose — the plain path must stay
// byte-identical across cluster and single-node serving, and an explain
// response cached for a plain request (or vice versa) would break that. A
// fleet node answers it itself, never forwarding: it is uncached and the
// same on every node. The explanation is spliced in as the body's last
// field, "explain".
func (s server) handleDiscoverExplain(w http.ResponseWriter, r *http.Request, req *request) {
	if (req.HTML == "") == (req.XML == "") {
		writeErr(w, http.StatusBadRequest,
			errors.New("exactly one of html or xml is required"))
		return
	}
	mode, doc := "html", req.HTML
	if req.XML != "" {
		mode, doc = "xml", req.XML
	}
	// templated=false: an explanation must come from the real heuristics,
	// never from a stored wrapper.
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, opts, apiErr := s.runDiscover(r.Context(), mode, doc, req, false, arena)
	if apiErr != nil {
		writeErr(w, apiErr.status, apiErr.err)
		return
	}
	explain := core.NewExplanation(res, opts)
	obs.TraceFrom(r.Context()).Add("explain", 0, explain.TraceAttrs()...)
	ej, err := json.Marshal(explain)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encoding the explanation: %w", err))
		return
	}
	result := pipeline.NewResult(res)
	body, err := pipeline.AppendDiscover(nil, &result)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encoding the discovery result: %w", err))
		return
	}
	// The body ends in "}\n"; explain goes in before the closing brace.
	body = append(body[:len(body)-2], `,"explain":`...)
	body = append(append(body, ej...), '}', '\n')
	writeBody(w, body)
}

// withRequest adapts a single-document handler: it decodes the request
// envelope, runs h, and releases the document once h has written its reply.
func withRequest(h func(http.ResponseWriter, *http.Request, *request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, _, ok := decode(w, r, false)
		if !ok {
			return
		}
		h(w, r, req)
		req.release()
	}
}

// recordBody is one split record on the wire.
type recordBody struct {
	Text  string `json:"text"`
	Start int    `json:"start"`
	End   int    `json:"end"`
}

func (s server) handleRecords(w http.ResponseWriter, r *http.Request, req *request) {
	if req.HTML == "" {
		writeErr(w, http.StatusBadRequest, errors.New("html is required"))
		return
	}
	ont, err := s.onts.Resolve(req.Ontology)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ropts := s.pipelineOptions(r.Context(), ont, req.SeparatorList)
	arena := tagtree.AcquireArena()
	defer arena.Release()
	ropts.Arena = arena
	s.templatedOptions(&ropts, "html", req.Ontology, req.SeparatorList)
	res, err := core.DiscoverContext(r.Context(), req.HTML, ropts)
	if err != nil {
		apiErr := pipelineError(err)
		writeErr(w, apiErr.status, apiErr.err)
		return
	}
	var records []recordBody
	for _, rec := range core.Split(req.HTML, res) {
		records = append(records, recordBody{Text: rec.Text, Start: rec.Start, End: rec.End})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"separator": res.Separator,
		"records":   records,
	})
}

func (s server) handleExtract(w http.ResponseWriter, r *http.Request, req *request) {
	if req.HTML == "" {
		writeErr(w, http.StatusBadRequest, errors.New("html is required"))
		return
	}
	if req.Ontology == "" {
		writeErr(w, http.StatusBadRequest, errors.New("ontology is required for extraction"))
		return
	}
	ont, err := s.onts.Resolve(req.Ontology)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	xopts := s.pipelineOptions(r.Context(), ont, nil)
	arena := tagtree.AcquireArena()
	defer arena.Release()
	xopts.Arena = arena
	s.templatedOptions(&xopts, "html", req.Ontology, nil)
	res, err := core.DiscoverContext(r.Context(), req.HTML, xopts)
	if err != nil {
		apiErr := pipelineError(err)
		writeErr(w, apiErr.status, apiErr.err)
		return
	}
	db, err := dbgen.Populate(ont, res)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"separator": res.Separator,
		"database":  db,
	})
}

func (s server) handleClassify(w http.ResponseWriter, r *http.Request, req *request) {
	if req.HTML == "" || req.Ontology == "" {
		writeErr(w, http.StatusBadRequest, errors.New("html and ontology are required"))
		return
	}
	ont, err := s.onts.Resolve(req.Ontology)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := classify.Classify(req.HTML, ont)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"kind":         res.Kind.String(),
		"estimate":     res.Estimate,
		"field_counts": res.FieldCounts,
		"fan_out":      res.FanOut,
		"candidates":   res.Candidates,
	})
}

func (s server) handleOntologies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"builtin":    ontology.BuiltinNames(),
		"heuristics": certainty.AllHeuristics,
	})
}
