package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// RequestIDHeader carries the request ID on requests (honored when present)
// and on every response.
const RequestIDHeader = "X-Request-ID"

// statusWriter captures the response status and body size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports streaming.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, so handlers
// behind the middleware can reach controller features the wrapper does not
// re-implement (EnableFullDuplex, deadlines, hijacking).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Tracing configures the middleware's distributed-tracing behavior: where
// finished traces are published and which service name the fragment roots
// carry. A nil *Tracing disables tracing entirely.
type Tracing struct {
	Store   *TraceStore
	Service string
}

// Middleware wraps next with structured request logging, per-route metrics,
// X-Request-ID propagation and — when tracing is non-nil — distributed
// tracing: an inbound W3C traceparent header continues the caller's trace
// (otherwise a fresh one starts), the live trace rides the request context
// for handlers to annotate, the trace ID echoes on the X-Trace-ID response
// header, and the finished fragment is published to tracing.Store with its
// status derived from the response code (429 → shed, other 4xx/5xx →
// error). route maps a request to its bounded-cardinality route label (e.g.
// the mux pattern that matched); nil or an empty result is labeled
// "unmatched". logger may be nil to disable logging; reg may be nil to
// disable metrics.
//
// Per route it maintains: http_requests_total{route,method,code},
// http_request_errors_total{route} (status >= 400),
// http_request_duration_seconds{route} (histogram),
// http_request_body_bytes_total{route} (bytes in), and the process-wide
// http_requests_in_flight gauge.
func Middleware(next http.Handler, logger *slog.Logger, reg *Registry, route func(*http.Request) string, tracing *Tracing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := "unmatched"
		if route != nil {
			if s := route(r); s != "" {
				rt = s
			}
		}

		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		// The request is copied once, with the request ID and the trace
		// both on its context.
		ctx := WithRequestID(r.Context(), id)

		var tr *Trace
		traceID := ""
		if tracing != nil {
			if sc, ok := ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
				tr = NewTraceFrom(sc)
			} else {
				tr = NewTrace()
			}
			service := tracing.Service
			if service == "" {
				service = "boundary"
			}
			// Route labels from mux patterns often carry the method already
			// ("POST /v1/discover"); only prefix it when absent.
			name := rt
			if !strings.HasPrefix(name, r.Method+" ") {
				name = r.Method + " " + name
			}
			tr.SetRoot(service, name)
			tr.RootAttr("request_id", id)
			traceID = tr.ID().String()
			w.Header().Set(TraceIDHeader, traceID)
			ctx = WithTrace(ctx, tr)
		}
		r = r.WithContext(ctx)

		inFlight := reg.Gauge("http_requests_in_flight",
			"Requests currently being served.")
		inFlight.Inc()
		defer inFlight.Dec()
		if r.ContentLength > 0 {
			reg.Counter("http_request_body_bytes_total",
				"Request body bytes received, by route.",
				"route", rt).Add(float64(r.ContentLength))
		}

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)

		if sw.status == 0 { // handler wrote nothing
			sw.status = http.StatusOK
		}
		reg.Counter("http_requests_total",
			"HTTP requests served, by route, method and status code.",
			"route", rt, "method", r.Method, "code", strconv.Itoa(sw.status)).Inc()
		if sw.status >= 400 {
			reg.Counter("http_request_errors_total",
				"HTTP requests answered with a 4xx or 5xx status, by route.",
				"route", rt).Inc()
		}
		reg.Histogram("http_request_duration_seconds",
			"HTTP request latency in seconds, by route.", nil,
			"route", rt).Observe(elapsed.Seconds())

		if tr != nil {
			tr.RootAttr("code", strconv.Itoa(sw.status))
			switch {
			case sw.status == http.StatusTooManyRequests:
				tr.SetStatus(StatusShed, "load shed")
			case sw.status >= 400:
				tr.SetStatus(StatusError, "http status "+strconv.Itoa(sw.status))
			}
			tr.Finish()
			tracing.Store.Publish(tr)
		}

		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", id),
				slog.String("trace_id", traceID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", rt),
				slog.Int("status", sw.status),
				slog.Int64("bytes_in", max(r.ContentLength, 0)),
				slog.Int64("bytes_out", sw.bytes),
				slog.Duration("duration", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}
