// Command serve runs the record-boundary discovery pipeline as a JSON HTTP
// service (see internal/httpapi for the endpoint reference), with structured
// request logging, Prometheus metrics at /metrics, expvar at /debug/vars,
// and graceful shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	serve -addr :8080 [-ops-addr :6060] [-shutdown-timeout 10s]
//	      [-cache-size 1024] [-batch-parallelism 0]
//	      [-max-inflight 0] [-request-timeout 0]
//	      [-max-doc-bytes 0] [-max-tree-depth 0] [-max-nodes 0]
//	      [-node-name name] [-join addr,addr,...] [-advertise host:port]
//	      [-gossip-interval 1s] [-hedge-after 0]
//	      [-peer-queue-depth 32]
//	      [-trace-capacity 512] [-trace-sample 0]
//	      [-wrapper-store path] [-spot-check-rate 64]
//
// Observability (see docs/OBSERVABILITY.md): every request is traced; the
// trace ID is returned in the X-Trace-ID response header and incoming W3C
// traceparent headers are honoured, so fleet hops stitch into one trace.
// -trace-capacity bounds the in-memory store behind /debug/traces and
// -trace-sample head-samples 1 in N healthy traces (errored, degraded, shed,
// and tail-latency traces are always kept). A fleet node also serves
// /metrics/cluster, a federated view of every member's registry.
//
// -ops-addr starts a second, operations-only listener carrying the
// net/http/pprof profiling handlers (plus /metrics and /debug/vars again) so
// profiling is never exposed on the service port; empty disables it.
//
// -cache-size bounds the LRU result cache for /v1/discover and
// /v1/discover/batch (entries, not bytes); 0 disables caching. The cache
// is memory-only: a restarted node starts it empty, and its -wrapper-store
// answers every document of a known shape off the template fast path.
// -batch-parallelism caps the worker pool draining one batch request;
// 0 means GOMAXPROCS.
//
// -wrapper-store enables the learned-wrapper fast path (docs/WRAPPER.md):
// discovered wrappers are keyed by template fingerprint, journaled to the
// given path so they survive restarts, and answer structurally-identical
// documents without re-running discovery. -spot-check-rate re-verifies
// every Nth fast-path hit against full discovery and evicts the wrapper on
// drift; 0 disables spot-checks. /v1/template/stats reports the store.
//
// Robustness knobs (see docs/ROBUSTNESS.md; each 0 disables its limit):
// -max-inflight sheds /v1/ requests beyond N in flight with 429 +
// Retry-After; -request-timeout aborts a /v1/ request's work after the
// duration and answers 503 — on a fleet node both bound every /v1/ request
// the node accepts, forwarded ones included; -max-doc-bytes (413),
// -max-tree-depth (422), and -max-nodes (422) bound per-document parse
// resources.
//
// Fleets (see docs/SCALING.md): -node-name turns the process into one
// member of a gossip-managed fleet, and -join lists seed members to join
// through (without it the node starts a fleet of its own). The node learns
// the live member set by gossip and feeds it into a consistent-hash router.
// The node's own handler is its only HTTP stack: it hands every discover
// document — a /v1/discover request, each /v1/discover/batch document, each
// /v1/discover/stream line — to the router, which sends it to the member
// owning its fingerprint (for cache affinity) and reaches the node's own
// share of the ring by direct call. Peers join and leave the ring at
// runtime with no restart or flag change. Without -node-name the process
// serves alone with no router. Members share only the ring and gossip:
// with a wrapper store configured, each member learns the page shapes it
// is routed and warms only from its own journal after a restart.
// -advertise overrides the address peers dial (defaults to the bound
// listener address); -gossip-interval paces heartbeats — suspicion starts
// after 3 silent intervals, death after 10. Membership is the router's
// only liveness signal: a Suspect member keeps its ring share but is
// routed around until it is heard from again, and a Dead one leaves the
// ring.
// -hedge-after launches a second attempt on the next member when the
// primary is slower than the duration (0 disables hedging);
// -peer-queue-depth bounds each member's queue (saturation sheds
// interactive requests with 429 and makes bulk documents wait). Shutdown
// broadcasts a graceful leave.
//
// Example:
//
//	curl -s localhost:8080/v1/discover \
//	     -d '{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>"}'
//	curl -s localhost:8080/metrics
//	go tool pprof localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/tagtree"
	"repro/internal/template"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx is cancelled (then draining
// in-flight requests) or a listener fails. Listener addresses are printed to
// out so callers using port 0 learn the bound ports.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "service listen address")
	opsAddr := fs.String("ops-addr", "",
		"operations listen address (pprof, /metrics, /debug/vars); empty disables")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second,
		"how long to drain in-flight requests on SIGINT/SIGTERM")
	cacheSize := fs.Int("cache-size", 1024,
		"max entries in the discovery result cache; 0 disables caching")
	batchParallelism := fs.Int("batch-parallelism", 0,
		"workers per /v1/discover/batch request; 0 means GOMAXPROCS")
	maxInflight := fs.Int("max-inflight", 0,
		"max concurrently-processing /v1/ requests; excess shed with 429; 0 disables")
	requestTimeout := fs.Duration("request-timeout", 0,
		"per-request processing deadline for /v1/ routes (503 on expiry); 0 disables")
	maxDocBytes := fs.Int("max-doc-bytes", 0,
		"max document size in bytes (413 beyond it); 0 disables")
	maxTreeDepth := fs.Int("max-tree-depth", 0,
		"max tag-tree nesting depth (422 beyond it); 0 disables")
	maxNodes := fs.Int("max-nodes", 0,
		"max tag-tree node count (422 beyond it); 0 disables")
	hedgeAfter := fs.Duration("hedge-after", 0,
		"hedge a discover request on the next peer when the primary is slower than this; 0 disables")
	peerQueueDepth := fs.Int("peer-queue-depth", 32,
		"max in-flight requests per replica; beyond it interactive requests shed 429 and bulk fan-out throttles")
	nodeName := fs.String("node-name", "",
		"stable name of this node in a gossip-managed fleet (docs/SCALING.md); enables the fleet router")
	joinSeeds := fs.String("join", "",
		"comma-separated seed addresses (host:port or URL) to join a gossip-managed fleet through; requires -node-name")
	advertise := fs.String("advertise", "",
		"address peers dial for this node's API and gossip; empty derives it from the bound -addr listener")
	gossipInterval := fs.Duration("gossip-interval", membership.DefaultInterval,
		"membership heartbeat period; members turn suspect after 3 silent intervals and dead after 10")
	traceCapacity := fs.Int("trace-capacity", 512,
		"max traces retained in memory for /debug/traces; 0 uses the default")
	traceSample := fs.Int("trace-sample", 0,
		"head-sample 1 in N healthy traces (errored, degraded, shed, and slow traces are always kept); 0 or 1 keeps all")
	wrapperStore := fs.String("wrapper-store", "",
		"path of the learned-wrapper store journal enabling the template fast path (docs/WRAPPER.md); empty disables")
	spotCheckRate := fs.Int("spot-check-rate", 64,
		"re-verify every Nth template fast-path hit against full discovery; 0 disables spot-checks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheSize < 0 {
		return fmt.Errorf("-cache-size must be >= 0, got %d", *cacheSize)
	}
	if *batchParallelism < 0 {
		return fmt.Errorf("-batch-parallelism must be >= 0, got %d", *batchParallelism)
	}
	for name, v := range map[string]int{
		"-max-inflight": *maxInflight, "-max-doc-bytes": *maxDocBytes,
		"-max-tree-depth": *maxTreeDepth, "-max-nodes": *maxNodes,
	} {
		if v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", name, v)
		}
	}
	if *requestTimeout < 0 {
		return fmt.Errorf("-request-timeout must be >= 0, got %v", *requestTimeout)
	}
	if *traceCapacity < 0 {
		return fmt.Errorf("-trace-capacity must be >= 0, got %d", *traceCapacity)
	}
	if *traceSample < 0 {
		return fmt.Errorf("-trace-sample must be >= 0, got %d", *traceSample)
	}
	if *spotCheckRate < 0 {
		return fmt.Errorf("-spot-check-rate must be >= 0, got %d", *spotCheckRate)
	}
	if *gossipInterval <= 0 {
		return fmt.Errorf("-gossip-interval must be > 0, got %v", *gossipInterval)
	}
	if *joinSeeds != "" && *nodeName == "" {
		return errors.New("-join requires -node-name")
	}

	logger := slog.New(slog.NewJSONHandler(out, nil))
	metrics := obs.NewRegistry()
	limits := tagtree.Limits{
		MaxBytes: *maxDocBytes,
		MaxDepth: *maxTreeDepth,
		MaxNodes: *maxNodes,
	}
	// The node's trace store; a request's routing spans land on its
	// fragment, and members' fragments of the same trace are stitched by
	// trace ID.
	traces := obs.NewTraceStore(obs.TraceStoreConfig{
		Capacity:    *traceCapacity,
		SampleEvery: *traceSample,
	})

	var templates *template.Store
	if *wrapperStore != "" {
		var err error
		templates, err = template.Open(template.Config{
			Path:           *wrapperStore,
			SpotCheckEvery: *spotCheckRate,
			Metrics:        metrics,
		})
		if err != nil {
			return fmt.Errorf("-wrapper-store: %w", err)
		}
		defer templates.Close()
		fmt.Fprintf(out, "wrapper store %s: %d templates loaded\n", *wrapperStore, templates.Len())
	}

	// Listen before building the membership layer: a node's advertised
	// address derives from the bound port when -advertise is not given, and
	// -addr may carry port 0.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	apiCfg := httpapi.Config{
		Logger:         logger,
		Metrics:        metrics,
		Traces:         traces,
		Service:        "boundary",
		CacheSize:      *cacheSize,
		BatchWorkers:   *batchParallelism,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *requestTimeout,
		Limits:         limits,
		Templates:      templates,
	}

	var handler http.Handler
	var node *membership.Node
	if *nodeName != "" {
		advertiseAddr := *advertise
		if advertiseAddr == "" {
			advertiseAddr = deriveAdvertise(ln.Addr().String())
		}
		seeds := splitList(*joinSeeds)

		// The router doesn't exist yet when the node is built, so OnChange
		// goes through a nil-guarded reference; it is set before Join, and
		// nothing changes the serving set before that.
		var peersMu sync.Mutex
		known := map[string]string{} // member name → addr currently wired into the router
		var routerRef *cluster.Router
		onChange := func(serving []membership.Member) {
			peersMu.Lock()
			defer peersMu.Unlock()
			if routerRef == nil {
				return
			}
			want := make(map[string]string, len(serving))
			for _, m := range serving {
				if m.Name != *nodeName {
					want[m.Name] = m.Addr
				}
			}
			for name := range known {
				if _, ok := want[name]; !ok {
					routerRef.RemovePeer(name)
					delete(known, name)
				}
			}
			for name, maddr := range want {
				if known[name] == maddr {
					continue
				}
				// AddPeer replaces a same-name peer, so a member that
				// rejoined on a new address swaps cleanly.
				if err := routerRef.AddPeer(cluster.NewHTTPPeer(name, peerBaseURL(maddr), nil)); err == nil {
					known[name] = maddr
				}
			}
			// Suspect members keep their ring shares but are routed
			// around until membership hears from them again.
			for _, m := range serving {
				routerRef.SetSuspect(m.Name, m.State == membership.Suspect)
			}
		}

		var err error
		node, err = membership.New(membership.Config{
			Name:      *nodeName,
			Addr:      advertiseAddr,
			Seeds:     seeds,
			Interval:  *gossipInterval,
			Transport: &membership.HTTPTransport{},
			OnChange:  onChange,
			Metrics:   metrics,
			Traces:    traces,
			Service:   *nodeName,
			Logger:    logger,
		})
		if err != nil {
			return err
		}
		defer node.Close()

		// The router reaches the node's own share of the ring by direct
		// call into the node's server, built just below; nothing is routed
		// before the listener serves.
		var selfSrv *httpapi.Server
		self := cluster.NewLocalPeer(*nodeName, func(ctx context.Context, body []byte) (int, []byte) {
			return selfSrv.DiscoverLocal(ctx, body)
		}, metrics)
		router, err := cluster.NewRouter(cluster.Config{
			Peers:      []cluster.Peer{self},
			HedgeAfter: *hedgeAfter,
			QueueDepth: *peerQueueDepth,
			Metrics:    metrics,
			Logger:     logger,
		})
		if err != nil {
			return err
		}

		// The node's server: the full single-node service plus the gossip
		// surface, with every discover document forwarded through the
		// router.
		selfCfg := apiCfg
		selfCfg.Service = *nodeName
		selfCfg.Membership = node
		selfCfg.Forward = router.Forward
		selfSrv, err = httpapi.NewServer(selfCfg)
		if err != nil {
			return err
		}

		peersMu.Lock()
		routerRef = router
		peersMu.Unlock()

		if err := node.Join(ctx); err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics/cluster", router.ServeClusterMetrics)
		mux.Handle("/", selfSrv)
		handler = mux
		fmt.Fprintf(out, "membership: node %s advertising %s (%d seeds)\n",
			*nodeName, advertiseAddr, len(seeds))
	} else {
		handler = httpapi.NewHandler(apiCfg)
	}

	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	fmt.Fprintf(out, "record-boundary service listening on %s\n", ln.Addr())

	servers := []*http.Server{srv}
	errCh := make(chan error, 2)
	go func() { errCh <- srv.Serve(ln) }()

	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			shutdown(out, servers, *shutdownTimeout)
			return err
		}
		ops := &http.Server{
			Handler:           opsMux(metrics, traces),
			ReadHeaderTimeout: 5 * time.Second,
		}
		servers = append(servers, ops)
		fmt.Fprintf(out, "ops listener (pprof, metrics) on %s\n", opsLn.Addr())
		go func() { errCh <- ops.Serve(opsLn) }()
	}

	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "shutting down")
		if node != nil {
			// Graceful leave: peers drop this node from their rings now
			// instead of detecting the silence as Suspect→Dead later.
			lctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			node.Leave(lctx)
			cancel()
		}
		return shutdown(out, servers, *shutdownTimeout)
	case err := <-errCh:
		shutdown(out, servers, *shutdownTimeout)
		return err
	}
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, raw := range strings.Split(s, ",") {
		if v := strings.TrimSpace(raw); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// peerBaseURL turns an advertised member address into the base URL the
// router dials.
func peerBaseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}

// deriveAdvertise turns the bound listener address into something peers can
// dial: an unspecified host (":8080", "[::]:8080", "0.0.0.0:8080") becomes
// 127.0.0.1, which is right for local fleets; multi-host deployments set
// -advertise explicitly.
func deriveAdvertise(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// shutdown drains every server, allowing up to timeout for in-flight
// requests; http.ErrServerClosed from the Serve goroutines is expected.
func shutdown(out io.Writer, servers []*http.Server, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var firstErr error
	for _, s := range servers {
		err := s.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			// The graceful window is exhausted: force-close the stragglers
			// rather than wedging process exit. This is not necessarily a
			// stuck handler — net/http counts a pooled client connection
			// that never sent a request as active for its first 5 seconds,
			// so a drain window shorter than that can expire on a
			// connection carrying nothing at all.
			s.Close()
			fmt.Fprintf(out, "shutdown: drain window expired after %s; forcing close\n", timeout)
			continue
		}
		if err != nil && !errors.Is(err, http.ErrServerClosed) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// opsMux is the operations-only surface: profiling endpoints that must not
// face service traffic, plus the metric exports and the trace store for
// convenience.
func opsMux(metrics *obs.Registry, traces *obs.TraceStore) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", metrics.Handler())
	mux.Handle("GET /debug/traces", traces.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}
