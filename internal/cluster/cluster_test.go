package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/paperdoc"
)

// testFleet is a fleet entered the way cmd/serve enters one: through a node
// handler whose discover documents go to the router (httpapi.Config.Forward).
// It embeds the router, so tests drive membership on it directly, and
// serves HTTP through the entry handler.
type testFleet struct {
	*Router
	entry http.Handler
}

func (f *testFleet) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.entry.ServeHTTP(w, r) }

// newFleet builds the router from cfg and an entry node in front of it that
// holds no share of the ring itself. entryCfg configures the entry's
// handler; its Metrics default to the router's registry and its Forward is
// the router's.
func newFleet(t *testing.T, cfg Config, entryCfg httpapi.Config) *testFleet {
	t.Helper()
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if entryCfg.Metrics == nil {
		entryCfg.Metrics = cfg.Metrics
	}
	entryCfg.Forward = r.Forward
	return &testFleet{Router: r, entry: newNode(t, entryCfg)}
}

// newNode builds one node server.
func newNode(t *testing.T, cfg httpapi.Config) *httpapi.Server {
	t.Helper()
	srv, err := httpapi.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// localPeer wraps a node server as the in-process peer named name.
func localPeer(name string, srv *httpapi.Server) *LocalPeer {
	return NewLocalPeer(name, srv.DiscoverLocal, nil)
}

// newTestRouter builds an n-node in-process fleet wired like cmd/serve
// nodes: node 0 is the entry, its handler forwards through the router, and
// the router reaches every node — node 0 included — through a LocalPeer.
// mutate, when non-nil, adjusts the router config before the router
// starts. The registry holds the router's series and the entry's HTTP
// metrics.
func newTestRouter(t *testing.T, n int, mutate func(*Config)) (*testFleet, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{Metrics: reg}
	nodes := make([]*httpapi.Server, n)
	for i := 0; i < n; i++ {
		cfg.Peers = append(cfg.Peers, NewLocalPeer("p"+strconv.Itoa(i),
			func(ctx context.Context, body []byte) (int, []byte) { return nodes[i].DiscoverLocal(ctx, body) }, nil))
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		nodeCfg := httpapi.Config{CacheSize: 64}
		if i == 0 {
			nodeCfg.Metrics, nodeCfg.Forward = reg, r.Forward
		}
		nodes[i] = newNode(t, nodeCfg)
	}
	return &testFleet{Router: r, entry: nodes[0]}, reg
}

func postRouter(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func discoverBody(suffix string) string {
	b, err := json.Marshal(map[string]string{"html": paperdoc.Figure2 + suffix, "ontology": "obituary"})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// discoverKey is discoverBody(suffix)'s routing key.
func discoverKey(suffix string) [sha256.Size]byte {
	return httpapi.RequestFingerprint("html", paperdoc.Figure2+suffix, "obituary", nil)
}

func TestRingOrderIsDeterministicAndComplete(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	r1, r2 := newRing(names), newRing(names)
	for i := 0; i < 50; i++ {
		key := sha256.Sum256([]byte(strconv.Itoa(i)))
		o1, o2 := r1.order(key), r2.order(key)
		if len(o1) != len(names) {
			t.Fatalf("order(%d) has %d peers, want %d", i, len(o1), len(names))
		}
		seen := make(map[int]bool)
		for _, p := range o1 {
			if seen[p] {
				t.Fatalf("order(%d) repeats peer %d: %v", i, p, o1)
			}
			seen[p] = true
		}
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("order(%d) differs between identical rings: %v vs %v", i, o1, o2)
			}
		}
	}
}

func TestRingOwnershipFollowsNamesNotPositions(t *testing.T) {
	// The same peer names in a different list order must own the same keys:
	// ring shares belong to names, so the order in which members join does
	// not reshuffle every replica's cache.
	fwd := newRing([]string{"a", "b", "c"})
	rev := newRing([]string{"c", "b", "a"})
	fwdNames := []string{"a", "b", "c"}
	revNames := []string{"c", "b", "a"}
	for i := 0; i < 50; i++ {
		key := sha256.Sum256([]byte(strconv.Itoa(i)))
		if fwdNames[fwd.order(key)[0]] != revNames[rev.order(key)[0]] {
			t.Fatalf("key %d owned by %s in one ordering, %s in the other",
				i, fwdNames[fwd.order(key)[0]], revNames[rev.order(key)[0]])
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := newRing([]string{"a", "b", "c"})
	counts := make([]int, 3)
	for i := 0; i < 600; i++ {
		key := sha256.Sum256([]byte(strconv.Itoa(i)))
		counts[r.order(key)[0]]++
	}
	for p, c := range counts {
		if c < 100 {
			t.Errorf("peer %d owns only %d/600 keys — ring badly unbalanced: %v", p, c, counts)
		}
	}
}

func TestNewRouterValidation(t *testing.T) {
	node := newNode(t, httpapi.Config{})
	if _, err := NewRouter(Config{}); err == nil {
		t.Error("no peers: want error")
	}
	if _, err := NewRouter(Config{Peers: []Peer{localPeer("", node)}}); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := NewRouter(Config{Peers: []Peer{
		localPeer("a", node), localPeer("a", node),
	}}); err == nil {
		t.Error("duplicate name: want error")
	}
}

// TestDiscoverMatchesSingleNode proves the core byte-identity contract on
// success and on the single node's own validation failures.
func TestDiscoverMatchesSingleNode(t *testing.T) {
	single := httpapi.NewHandler(httpapi.Config{CacheSize: 64})
	router, _ := newTestRouter(t, 3, nil)

	cases := map[string]string{
		"success":        discoverBody(""),
		"bad json":       `{"html": `,
		"both modes":     `{"html": "<p>a</p>", "xml": "<a/>"}`,
		"neither mode":   `{"ontology": "obituary"}`,
		"unknown field":  `{"html": "<p>a</p>", "bogus": 1}`,
		"bad ontology":   `{"html": "<p>a</p>", "ontology": "no-such"}`,
		"no candidates":  `{"html": ""}`,
		"xml mode":       `{"xml": "<list><item>a</item><item>b</item><item>c</item></list>"}`,
		"separator list": `{"html": ` + strconv.Quote(paperdoc.Figure2) + `, "separator_list": ["hr", "p"]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			want := postRouter(t, single, "/v1/discover", body)
			got := postRouter(t, router, "/v1/discover", body)
			if got.Code != want.Code {
				t.Fatalf("status = %d, single node = %d (%s)", got.Code, want.Code, got.Body)
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("response differs from single node:\n cluster: %s\n single:  %s",
					got.Body, want.Body)
			}
		})
	}
}

func TestDiscoverAffinity(t *testing.T) {
	router, reg := newTestRouter(t, 3, nil)
	body := discoverBody("")
	for i := 0; i < 5; i++ {
		if w := postRouter(t, router, "/v1/discover", body); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	// All five identical requests must have landed on one peer (whose cache
	// served the repeats), not spread round-robin.
	served := 0
	for i := 0; i < 3; i++ {
		v := reg.Counter("boundary_cluster_requests_total", "",
			"peer", "p"+strconv.Itoa(i), "outcome", "ok").Value()
		if v > 0 {
			served++
			if v != 5 {
				t.Errorf("peer p%d served %v requests, want all 5 on one peer", i, v)
			}
		}
	}
	if served != 1 {
		t.Errorf("%d peers served the identical request, want exactly 1", served)
	}
}

func TestQueueSaturationSheds429(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	node := newNode(t, httpapi.Config{})
	slow := NewLocalPeer("slow", func(ctx context.Context, body []byte) (int, []byte) {
		entered <- struct{}{}
		<-release
		return node.DiscoverLocal(ctx, body)
	}, nil)
	router := newFleet(t, Config{Peers: []Peer{slow}, QueueDepth: 1}, httpapi.Config{})

	// Park one request inside the peer (holding the only queue slot), then
	// prove the next interactive request is shed instead of queued.
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postRouter(t, router, "/v1/discover", discoverBody("")) }()
	<-entered

	w := postRouter(t, router, "/v1/discover", discoverBody("x"))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated cluster answered %d, want 429: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 is missing Retry-After")
	}
	close(release)
	if got := (<-first).Code; got != http.StatusOK {
		t.Fatalf("parked request finished with %d", got)
	}
}

// getHealthz asks the fleet's entry node for its health.
func getHealthz(router http.Handler) int {
	w := httptest.NewRecorder()
	router.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	return w.Code
}

// TestEjectionAndClusterHealthz: membership suspicion of every peer empties
// the rotation, so discover answers 503, while the node's /healthz — its own
// liveness, not the rotation's — stays ok; each transition is counted once,
// however often it is reported.
func TestEjectionAndClusterHealthz(t *testing.T) {
	router, reg := newTestRouter(t, 2, nil)
	for _, name := range []string{"p0", "p1", "p0"} {
		if !router.SetSuspect(name, true) {
			t.Fatalf("SetSuspect(%s) reported the peer absent", name)
		}
	}
	if router.SetSuspect("nobody", true) {
		t.Error("SetSuspect on a peer outside the ring reported it present")
	}
	if v := reg.Counter("boundary_cluster_ejections_total", "", "peer", "p0").Value(); v != 1 {
		t.Errorf("ejections_total{p0} = %v, want 1 (a repeated suspicion is no new ejection)", v)
	}
	if v := reg.Gauge("boundary_cluster_peers_healthy", "").Value(); v != 0 {
		t.Errorf("peers_healthy = %v, want 0", v)
	}
	if names := router.PeerNames(); len(names) != 2 {
		t.Errorf("ring members = %v, want both suspects still on the ring", names)
	}
	if code := getHealthz(router); code != http.StatusOK {
		t.Errorf("node /healthz with all peers suspect = %d, want 200", code)
	}
	if dw := postRouter(t, router, "/v1/discover", discoverBody("")); dw.Code != http.StatusServiceUnavailable {
		t.Errorf("discover with all peers suspect = %d, want 503", dw.Code)
	}
}

// TestReadmissionAfterRecovery: clearing the suspicion puts the peer back in
// the rotation, and the router answers 200 again.
func TestReadmissionAfterRecovery(t *testing.T) {
	router, reg := newTestRouter(t, 1, nil)
	router.SetSuspect("p0", true)
	if dw := postRouter(t, router, "/v1/discover", discoverBody("")); dw.Code != http.StatusServiceUnavailable {
		t.Fatalf("discover with the only peer suspect = %d, want 503", dw.Code)
	}
	router.SetSuspect("p0", false)
	router.SetSuspect("p0", false)
	if v := reg.Counter("boundary_cluster_readmissions_total", "", "peer", "p0").Value(); v != 1 {
		t.Errorf("readmissions_total = %v, want 1", v)
	}
	if v := reg.Gauge("boundary_cluster_peers_healthy", "").Value(); v != 1 {
		t.Errorf("peers_healthy = %v, want 1", v)
	}
	if w := postRouter(t, router, "/v1/discover", discoverBody("")); w.Code != http.StatusOK {
		t.Errorf("discover after readmission = %d: %s", w.Code, w.Body)
	}
}

// TestSuspectPeerRoutesToRingSuccessor: a suspect owner's keys go to its
// ring successor while the ring itself stays as it was, and come back to
// the owner on readmission.
func TestSuspectPeerRoutesToRingSuccessor(t *testing.T) {
	router, reg := newTestRouter(t, 3, nil)
	body := discoverBody("")
	view := router.snapshot()
	order := view.ring.order(discoverKey(""))
	owner, successor := view.peers[order[0]].peer.Name(), view.peers[order[1]].peer.Name()
	served := func(name string) float64 {
		return reg.Counter("boundary_cluster_requests_total", "",
			"peer", name, "outcome", "ok").Value()
	}
	post := func(phase string) {
		t.Helper()
		if w := postRouter(t, router, "/v1/discover", body); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", phase, w.Code, w.Body)
		}
	}

	post("healthy")
	router.SetSuspect(owner, true)
	post("owner suspect")
	if router.snapshot() != view {
		t.Error("SetSuspect published a new view; the ring must stay unchanged")
	}
	if got := served(successor); got != 1 {
		t.Errorf("successor %s served %v requests while %s was suspect, want 1", successor, got, owner)
	}
	router.SetSuspect(owner, false)
	post("owner readmitted")
	if got := served(owner); got != 2 {
		t.Errorf("owner %s served %v requests, want 2 (before suspicion and after readmission)", owner, got)
	}
	if got := served(successor); got != 1 {
		t.Errorf("successor %s served %v requests, want still 1 after readmission", successor, got)
	}
}

// TestSetSuspectUnderTraffic flips one peer's suspicion while requests are
// routed against the same view: with a second peer always in the rotation,
// every request answers 200 (run under -race, the flips race the lookups).
func TestSetSuspectUnderTraffic(t *testing.T) {
	router, _ := newTestRouter(t, 2, nil)
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for suspect := true; ; suspect = !suspect {
			select {
			case <-stop:
				router.SetSuspect("p0", false)
				return
			default:
				router.SetSuspect("p0", suspect)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if w := postRouter(t, router, "/v1/discover", discoverBody(strconv.Itoa(i))); w.Code != http.StatusOK {
			t.Errorf("request %d during suspicion flips = %d: %s", i, w.Code, w.Body)
		}
	}
	close(stop)
	<-flipped
	if n := router.healthyCount(); n != 2 {
		t.Errorf("healthyCount after the flips = %d, want 2", n)
	}
}

// TestLocalPeerHandlerPanicIsContained: a panic in the node's own discover
// path, which runs on the router's attempt goroutine, fails that one
// request like an aborted connection would — the process survives and the
// next request is answered.
func TestLocalPeerHandlerPanicIsContained(t *testing.T) {
	faults := faultinject.New()
	reg := obs.NewRegistry()
	var self *httpapi.Server
	router, err := NewRouter(Config{
		Peers: []Peer{NewLocalPeer("self", func(ctx context.Context, body []byte) (int, []byte) {
			return self.DiscoverLocal(ctx, body)
		}, nil)},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	self = newNode(t, httpapi.Config{Faults: faults, Forward: router.Forward})
	faults.Inject("httpapi/discover", faultinject.Fault{Panic: "boom", Times: 1})

	w := postRouter(t, self, "/v1/discover", discoverBody(""))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "boom") {
		t.Errorf("discover through a panicking handler = %d %s, want 503 naming the panic", w.Code, w.Body)
	}
	if v := reg.Counter("boundary_cluster_requests_total", "", "peer", "self", "outcome", "transport").Value(); v != 1 {
		t.Errorf("requests_total{outcome=transport} = %v, want 1", v)
	}
	if w := postRouter(t, self, "/v1/discover", discoverBody("")); w.Code != http.StatusOK {
		t.Errorf("discover after the panic = %d: %s", w.Code, w.Body)
	}
}

func TestHTTPPeerAgainstRealServer(t *testing.T) {
	srv := httptest.NewServer(httpapi.NewHandler(httpapi.Config{}))
	defer srv.Close()
	p := NewHTTPPeer("real", srv.URL, nil)
	status, resp, err := p.Do(t.Context(), []byte(discoverBody("")))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, resp)
	}
	single := postRouter(t, httpapi.NewHandler(httpapi.Config{}), "/v1/discover", discoverBody(""))
	if !bytes.Equal(resp, single.Body.Bytes()) {
		t.Error("HTTP peer response differs from in-process handler")
	}
}

func TestRoutedRequestsAppearInRouterMetrics(t *testing.T) {
	router, reg := newTestRouter(t, 2, nil)
	if w := postRouter(t, router, "/v1/discover", discoverBody("")); w.Code != http.StatusOK {
		t.Fatalf("discover: %d", w.Code)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"boundary_cluster_requests_total",
		"boundary_cluster_peer_request_seconds",
		"boundary_cluster_peers_healthy",
		"http_requests_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition is missing %s", want)
		}
	}
}

func TestPerHopTraceSpans(t *testing.T) {
	store := obs.NewTraceStore(obs.TraceStoreConfig{})
	router, _ := newTracedCluster(t, store, nil)
	w := postRouter(t, router, "/v1/discover", discoverBody(""))
	if w.Code != http.StatusOK {
		t.Fatalf("discover: %d", w.Code)
	}
	id, ok := obs.ParseTraceID(w.Header().Get(obs.TraceIDHeader))
	if !ok {
		t.Fatal("routed response carries no trace id")
	}
	frags, ok := store.Get(id)
	if !ok {
		t.Fatalf("trace %s not in the store", id)
	}
	var route, hop bool
	for _, frag := range frags {
		for _, s := range frag.Spans {
			switch {
			case s.Name == "cluster/route":
				route = true
			case strings.HasPrefix(s.Name, "cluster/peer/"):
				hop = true
			}
		}
	}
	if !route || !hop {
		t.Errorf("trace spans missing: route=%v per-hop=%v", route, hop)
	}
}

// TestBodyLimitMirrorsSingleNode: the fleet's entry is a node handler, so an
// oversized body gets the single node's 413 before anything is routed.
func TestBodyLimitMirrorsSingleNode(t *testing.T) {
	router, _ := newTestRouter(t, 1, nil)
	single := httpapi.NewHandler(httpapi.Config{})
	big := fmt.Sprintf(`{"html": %q}`, bytes.Repeat([]byte("x"), httpapi.MaxBodyBytes))
	want := postRouter(t, single, "/v1/discover", big)
	got := postRouter(t, router, "/v1/discover", big)
	if got.Code != http.StatusRequestEntityTooLarge || want.Code != got.Code {
		t.Fatalf("oversized body: cluster %d, single %d", got.Code, want.Code)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("413 body differs:\n cluster: %s\n single:  %s", got.Body, want.Body)
	}
}

// stallPeer is a fake Peer that never answers: its Do announces itself on
// entered and blocks until its context ends — a member that stopped
// responding without closing its connections, reached with no client
// timeout.
type stallPeer struct {
	name    string
	entered chan struct{}
}

func (p *stallPeer) Name() string { return p.name }

func (p *stallPeer) Do(ctx context.Context, _ []byte) (int, []byte, error) {
	p.entered <- struct{}{}
	<-ctx.Done()
	return 0, nil, ctx.Err()
}

func (p *stallPeer) ScrapeMetrics(context.Context) ([]byte, error) { return nil, nil }

// TestSuspicionEndsAttemptsInFlight: with hedging off, a document whose
// owner has stalled waits on it — until membership suspects the owner.
// SetSuspect must end the attempt in flight so the document reroutes to its
// ring successor at once, on the interactive and the bulk path alike, and
// the ended attempt must be counted as the peer's doing (outcome
// "suspected"), not as the caller hanging up. The stalled owner is either a
// remote member, whose cut attempt fails as a broken connection does, or a
// node's own share of the ring, which answers the cut attempt with its own
// 503 ("request canceled"); neither may reach the caller.
func TestSuspicionEndsAttemptsInFlight(t *testing.T) {
	owners := []struct {
		kind string
		// start returns the stalled owner and a wait for its first attempt.
		start func(t *testing.T) (Peer, func())
	}{
		{"remote", func(t *testing.T) (Peer, func()) {
			p := &stallPeer{name: "stalled", entered: make(chan struct{}, 1)}
			return p, func() { <-p.entered }
		}},
		{"local", func(t *testing.T) (Peer, func()) {
			faults := faultinject.New()
			faults.Inject("httpapi/discover", faultinject.Fault{Delay: time.Minute})
			return localPeer("stalled", newNode(t, httpapi.Config{Faults: faults})), func() {
				for faults.Fired("httpapi/discover") == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}},
	}
	for _, bulk := range []bool{false, true} {
		t.Run(fmt.Sprintf("bulk=%v", bulk), func(t *testing.T) {
			for _, owner := range owners {
				t.Run(owner.kind, func(t *testing.T) {
					stalled, entered := owner.start(t)
					reg := obs.NewRegistry()
					router, err := NewRouter(Config{
						Peers:   []Peer{stalled, localPeer("successor", newNode(t, httpapi.Config{}))},
						Metrics: reg,
					})
					if err != nil {
						t.Fatal(err)
					}
					// A document the stalled peer owns.
					suffix := ""
					for i := 0; ; i++ {
						suffix = "<!-- " + strconv.Itoa(i) + " -->"
						if router.snapshot().ring.order(discoverKey(suffix))[0] == 0 {
							break
						}
					}

					type answer struct {
						status int
						err    error
					}
					done := make(chan answer, 1)
					go func() {
						status, _, _, err := router.Forward(context.Background(), discoverKey(suffix), []byte(discoverBody(suffix)), bulk)
						done <- answer{status, err}
					}()
					entered()
					suspected := time.Now()
					router.SetSuspect("stalled", true)
					select {
					case a := <-done:
						if a.err != nil || a.status != http.StatusOK {
							t.Fatalf("forward after suspicion = %d, %v; want 200 from the successor", a.status, a.err)
						}
						if elapsed := time.Since(suspected); elapsed > time.Second {
							t.Errorf("answered %v after suspicion, want well under 1s", elapsed)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("the document stayed blocked on the suspect owner")
					}
					if v := reg.Counter("boundary_cluster_requests_total", "", "peer", "stalled", "outcome", "suspected").Value(); v != 1 {
						t.Errorf("requests_total{stalled, suspected} = %v, want 1", v)
					}
					if v := reg.Counter("boundary_cluster_requests_total", "", "peer", "successor", "outcome", "ok").Value(); v != 1 {
						t.Errorf("requests_total{successor, ok} = %v, want 1", v)
					}
				})
			}
		})
	}
}

// TestMarkupNearBodyLimitForwardsIntact: a batch document or stream line
// is re-encoded before it goes to its owner, and the owner checks that
// envelope against MaxBodyBytes. Markup escaped as json.Marshal does it
// (each & as six bytes) passes the limit though the document itself fits
// well inside. The shortest listing whose escaped envelope passes the
// limit, sent through an entry whose owner is a remote member, must get a
// single node's answer byte for byte.
func TestMarkupNearBodyLimitForwardsIntact(t *testing.T) {
	member := httptest.NewServer(httpapi.NewHandler(httpapi.Config{}))
	defer member.Close()
	fleet := newFleet(t, Config{Peers: []Peer{NewHTTPPeer("m", member.URL, nil)}}, httpapi.Config{})
	single := httpapi.NewHandler(httpapi.Config{})

	// Records of mostly ampersands: the escaped envelope is about six
	// times the document, with few nodes to parse.
	var doc strings.Builder
	escaped := len(`{"html":""}`)
	for i := 0; escaped <= httpapi.MaxBodyBytes; i++ {
		rec := fmt.Sprintf("<hr><b>Record %d</b> %s", i, strings.Repeat("&", 1000))
		q, _ := json.Marshal(rec)
		escaped += len(q) - 2
		doc.WriteString(rec)
	}
	// The client sends the ampersands unescaped.
	var raw bytes.Buffer
	enc := json.NewEncoder(&raw)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(map[string]string{"html": doc.String()}); err != nil {
		t.Fatal(err)
	}
	line := bytes.TrimSuffix(raw.Bytes(), []byte{'\n'})
	if len(line) > httpapi.MaxBodyBytes/2 {
		t.Fatalf("document line is %d bytes, want it well inside the limit", len(line))
	}

	for path, body := range map[string]string{
		"/v1/discover/batch":  `{"documents":[` + string(line) + `]}`,
		"/v1/discover/stream": string(line) + "\n",
	} {
		want := postRouter(t, single, path, body)
		got := postRouter(t, fleet, path, body)
		if want.Code != http.StatusOK || !bytes.Contains(want.Body.Bytes(), []byte(`"separator":"hr"`)) {
			t.Fatalf("%s: single node answered %d: %.200s", path, want.Code, want.Body)
		}
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: fleet answered %d %.200s, single node %d %.200s",
				path, got.Code, got.Body, want.Code, want.Body)
		}
	}
}
