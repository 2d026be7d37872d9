package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// clients is the serve workload's closed-loop client count: one per
// processor of the machine the benchmark was tuned on.
const clients = 2

// spanHeader carries a traced request's trace and span id to the server.
const spanHeader = "X-Perfbench-Span"

// serveRunner drives the HTTP service over loopback TCP as crawler clients
// would: each sends POST /v1/discover and waits for the whole reply before
// sending its next request.
type serveRunner struct {
	plan   *servePlan
	bodies [][]byte // per variant
	warm   [][]byte // set-up requests: every base page, then the ring's tail
	warmPg []*page

	metrics *obs.Registry
	store   *template.Store
	api     *httpapi.Server
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
	rec     atomic.Pointer[recorder]
	// next is the position in the request order where the next phase
	// starts; phases run whole periods, so it is a period boundary.
	next int
}

func newServeRunner(seed int64) (*serveRunner, error) {
	s := &serveRunner{plan: newServePlan(seed)}
	for _, p := range s.plan.variants {
		b, err := body(p)
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	s.warmPg = append(append([]*page(nil), s.plan.base...), s.plan.recent()...)
	for _, p := range s.warmPg {
		b, err := body(p)
		if err != nil {
			return nil, err
		}
		s.warm = append(s.warm, b)
	}
	return s, nil
}

// setUp builds the handler the way cmd/serve does by default — a metrics
// registry, a 1024-entry result cache, a trace store, the request log —
// plus a memory-only template store spot-checking every 64th hit, with
// the log discarded. It starts the listener and serves the set-up pass:
// every base page, which compiles the ontologies' rules and fills the
// template store, then the variants the first re-crawls of a period ask
// for, which fills the result cache.
func (s *serveRunner) setUp() (time.Duration, error) {
	start := time.Now()
	s.metrics = obs.NewRegistry()
	store, err := template.Open(template.Config{SpotCheckEvery: 64, Metrics: s.metrics})
	if err != nil {
		return 0, err
	}
	s.store = store
	s.api, err = httpapi.NewServer(httpapi.Config{
		Logger:    slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Metrics:   s.metrics,
		Traces:    obs.NewTraceStore(obs.TraceStoreConfig{Capacity: 512}),
		Service:   "boundary",
		CacheSize: 1024,
		Templates: store,
	})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler:           http.HandlerFunc(s.serveHTTP),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	warm := func(i int) ([]byte, *page) { return s.warm[i], s.warmPg[i] }
	ph, err := s.drive(warm, len(s.warm), 0, nil)
	if err != nil {
		return 0, err
	}
	if ph.completed() != len(s.warm) {
		return 0, fmt.Errorf("set-up pass completed %d of %d requests", ph.completed(), len(s.warm))
	}
	return time.Since(start), nil
}

// close stops the server and waits for it; closing twice is harmless.
func (s *serveRunner) close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv = nil
	s.client.CloseIdleConnections()
	return errors.Join(err, s.api.Close(), s.store.Close())
}

// serveHTTP is the listener's handler: the service itself, timed when a
// traced phase is running.
func (s *serveRunner) serveHTTP(w http.ResponseWriter, r *http.Request) {
	rec := s.rec.Load()
	if rec == nil {
		s.api.ServeHTTP(w, r)
		return
	}
	trace, parent := parseSpanHeader(r.Header.Get(spanHeader))
	start := rec.now()
	s.api.ServeHTTP(w, r)
	rec.record(trace, parent, "httpapi.served", start)
}

func parseSpanHeader(v string) (trace, parent int64) {
	t, p, _ := strings.Cut(v, "/")
	trace, _ = strconv.ParseInt(t, 10, 64)
	parent, _ = strconv.ParseInt(p, 10, 64)
	return trace, parent
}

// measure runs whole periods of the request order until d has elapsed.
func (s *serveRunner) measure(d time.Duration, rec *recorder) (*phase, error) {
	period := len(s.plan.order)
	first := s.next
	target := func(i int) ([]byte, *page) {
		v := s.plan.order[(first+i)%period]
		return s.bodies[v], s.plan.variants[v]
	}
	s.rec.Store(rec)
	defer s.rec.Store(nil)
	ph, err := s.drive(target, period, d, rec)
	if err != nil {
		return nil, err
	}
	s.next += ph.attempted
	return ph, nil
}

// drive runs the closed loop: the clients take requests in order until the
// first multiple of period at or after the moment limit has elapsed.
func (s *serveRunner) drive(target func(int) ([]byte, *page), period int, limit time.Duration, rec *recorder) (*phase, error) {
	var (
		mu   sync.Mutex
		next int
		stop = -1
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop < 0 && time.Since(start) >= limit {
			stop = max(period, (next+period-1)/period*period)
		}
		if stop >= 0 && next >= stop {
			return 0, false
		}
		next++
		return next - 1, true
	}

	parts := make([]phase, clients)
	errs := make([]error, clients)
	rs := snapshotRuntime()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(ph *phase, errp *error) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i, ok := take()
				if !ok {
					return
				}
				b, p := target(i)
				lat, err := s.do(&buf, b, p, int64(s.next+i), rec)
				ph.attempted++
				if err != nil {
					ph.failed++
					if *errp == nil {
						*errp = err
					}
					continue
				}
				ph.samples = append(ph.samples, sample{done: time.Now(), lat: lat, bytes: len(p.html)})
				if sep, ok := separatorOf(buf.Bytes()); !ok || !p.doc.IsCorrect(sep) {
					ph.failed++
				}
			}
		}(&parts[c], &errs[c])
	}
	wg.Wait()
	ph := &phase{start: start, elapsed: time.Since(start), period: period}
	ph.since(rs)
	for _, part := range parts {
		ph.attempted += part.attempted
		ph.failed += part.failed
		ph.samples = append(ph.samples, part.samples...)
	}
	sort.Slice(ph.samples, func(i, j int) bool { return ph.samples[i].done.Before(ph.samples[j].done) })
	if ph.completed() == 0 {
		return nil, fmt.Errorf("no request completed: %w", errors.Join(errs...))
	}
	return ph, nil
}

// do sends one request and reads the whole reply into buf. A transport
// error or a status other than 200 is an error.
func (s *serveRunner) do(buf *bytes.Buffer, body []byte, p *page, trace int64, rec *recorder) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/discover", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := rec.newID()
	if rec != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", trace, id))
	}
	begin := rec.now()
	sent := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(sent)
	rec.add(trace, id, 0, "serve.request", begin, rec.now())
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s/%d: status %d: %s", p.doc.Site.Name, p.doc.Index, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return lat, nil
}

// separatorOf reads the separator field of a discover response without
// decoding the rest.
func separatorOf(body []byte) (string, bool) {
	const field = `"separator":`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return "", false
	}
	rest := bytes.TrimLeft(body[i+len(field):], " \t\r\n")
	if len(rest) == 0 || rest[0] != '"' {
		return "", false
	}
	rest = rest[1:]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return string(rest[:j]), true
}

// pathCounts are the service's counters that tell which path requests
// took.
type pathCounts struct {
	cacheHits, cacheMisses, templateHits, templateMisses float64
}

// scrape reads pathCounts from GET /metrics. Call it only while no request
// is in flight: the registry's exposition must not overlap the creation of
// a new series.
func (s *serveRunner) scrape() (pathCounts, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return pathCounts{}, err
	}
	defer resp.Body.Close()
	var pc pathCounts
	fields := map[string]*float64{
		"boundary_cache_hits_total":      &pc.cacheHits,
		"boundary_cache_misses_total":    &pc.cacheMisses,
		"boundary_template_hits_total":   &pc.templateHits,
		"boundary_template_misses_total": &pc.templateMisses,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if dst := fields[name]; ok && dst != nil {
			if *dst, err = strconv.ParseFloat(val, 64); err != nil {
				return pathCounts{}, fmt.Errorf("metric %s: %w", name, err)
			}
		}
	}
	return pc, sc.Err()
}

func (pc pathCounts) sub(o pathCounts) pathCounts {
	return pathCounts{pc.cacheHits - o.cacheHits, pc.cacheMisses - o.cacheMisses,
		pc.templateHits - o.templateHits, pc.templateMisses - o.templateMisses}
}

// counter reads one of the service's counters directly.
func (s *serveRunner) counter(name string, labels ...string) float64 {
	return s.metrics.Counter(name, "", labels...).Value()
}

// fullDiscoveries counts requests the service answered by full discovery:
// template-store misses plus spot-checked hits.
func (s *serveRunner) fullDiscoveries() float64 {
	return s.counter("boundary_template_misses_total") +
		s.counter("boundary_template_spot_checks_total", "outcome", "ok") +
		s.counter("boundary_template_spot_checks_total", "outcome", "divergent")
}

// ledger serves one period of the request order through the handler
// without a socket, timing each ServeHTTP, and replays the calls the
// request's path made — the cache key, and on a cache miss the template
// lookup and, when the service ran it, full discovery — each timed on its
// own.
func (s *serveRunner) ledger(rec *recorder) (*ledgerTotals, *phase, error) {
	period := len(s.plan.order)
	arena := tagtree.AcquireArena()
	defer arena.Release()
	lt := &ledgerTotals{ops: period}
	ph := &phase{}
	for k := 0; k < period; k++ {
		i := s.next + k
		v := s.plan.order[i%period]
		p := s.plan.variants[v]
		ont := string(p.domain())
		trace := int64(i)

		misses, full := s.counter("boundary_cache_misses_total"), s.fullDiscoveries()
		req := httptest.NewRequest(http.MethodPost, "/v1/discover", bytes.NewReader(s.bodies[v]))
		w := httptest.NewRecorder()
		start := rec.now()
		s.api.ServeHTTP(w, req)
		rec.record(trace, 0, "httpapi.handler", start)
		ph.attempted++
		if sep, ok := separatorOf(w.Body.Bytes()); w.Code != http.StatusOK || !ok || !p.doc.IsCorrect(sep) {
			ph.failed++
		}
		missed := s.counter("boundary_cache_misses_total") > misses
		discovered := s.fullDiscoveries() > full

		root := rec.newID()
		rootStart := rec.now()
		start = rec.now()
		httpapi.RequestFingerprint("html", p.html, ont, nil)
		rec.record(trace, root, "httpapi.request_key", start)
		if missed {
			start = rec.now()
			template.FingerprintDoc(p.html)
			rec.record(trace, root, "template.fingerprint", start)
			start = rec.now()
			s.store.LookupDoc(p.html, template.Salt("html", ont, nil))
			rec.record(trace, root, "template.lookup", start)
		}
		if discovered {
			if err := discoverAndReplay(rec, trace, root, p, ontology.Builtin(ont), s.metrics, arena, lt); err != nil {
				return nil, nil, err
			}
		}
		rec.add(trace, root, 0, "httpapi.replay", rootStart, rec.now())
	}
	s.next += period
	return lt, ph, nil
}

// perLayer derives the serve workload's per-layer metrics; paths holds
// the /metrics counter deltas over the untraced phase.
func (s *serveRunner) perLayer(paths pathCounts, rec *recorder, lt *ledgerTotals) map[string]float64 {
	t := rec.totals()
	handler := t.dur["httpapi.handler"]
	m := lt.metrics(t, handler)
	ops := float64(lt.ops)
	m["template.fingerprint_us"] = t.dur["template.fingerprint"] / ops / 1e3
	m["template.lookup_us"] = t.dur["template.lookup"] / ops / 1e3
	m["template.hit_ratio"] = ratio(paths.templateHits, paths.templateHits+paths.templateMisses)
	m["httpapi.request_key_us"] = t.dur["httpapi.request_key"] / ops / 1e3
	m["httpapi.handler_us"] = handler / ops / 1e3
	m["httpapi.cache_hit_ratio"] = ratio(paths.cacheHits, paths.cacheHits+paths.cacheMisses)
	named := t.dur["httpapi.request_key"] + t.dur["template.lookup"] + t.dur[spanDiscover]
	m["httpapi.unattributed_share"] = 1 - ratio(named, handler)
	m["httpapi.transport_us"] = ratio(t.self["serve.request"], float64(t.count["serve.request"])) / 1e3
	return m
}
