package cluster

// Cluster chaos tests: every scenario arms internal/faultinject hooks on the
// router's own hook points (cluster/route, cluster/peer[/<name>],
// cluster/hedge), sends traffic through a fleet's entry node, and asserts
// the fleet degrades the way docs/SCALING.md
// promises — hedges beat slow peers, dead peers are routed around without
// losing or duplicating documents, and a fully-dead backend set answers
// clean errors instead of hanging.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/httpapi"
	"repro/internal/paperdoc"
	"repro/internal/pipeline"
)

func TestHedgeFiresAndWins(t *testing.T) {
	faults := faultinject.New()
	router, reg := newTestRouter(t, 3, func(c *Config) {
		c.HedgeAfter = 250 * time.Millisecond
		c.Faults = faults
	})
	// Stall only the first peer attempt (the primary); the hedge that fires
	// 250ms in lands on an unstalled peer and must win the race. The stall is
	// far longer than the test — the winner's return cancels it.
	faults.Inject("cluster/peer", faultinject.Fault{Delay: 30 * time.Second, Times: 1})

	start := time.Now()
	w := postRouter(t, router, "/v1/discover", discoverBody(""))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("hedged request took %v — it waited for the stalled primary", elapsed)
	}
	if v := reg.Counter("boundary_cluster_hedges_fired_total", "").Value(); v != 1 {
		t.Errorf("hedges_fired_total = %v, want 1", v)
	}
	if v := reg.Counter("boundary_cluster_hedges_won_total", "").Value(); v != 1 {
		t.Errorf("hedges_won_total = %v, want 1", v)
	}
	if got := faults.Fired("cluster/hedge"); got != 1 {
		t.Errorf("cluster/hedge fired %d times, want 1", got)
	}

	// The winner is remembered: an identical request routes straight to the
	// peer that answered, so no second hedge fires.
	if w := postRouter(t, router, "/v1/discover", discoverBody("")); w.Code != http.StatusOK {
		t.Fatalf("repeat status = %d", w.Code)
	}
	if v := reg.Counter("boundary_cluster_hedges_fired_total", "").Value(); v != 1 {
		t.Errorf("hedges_fired_total after winner-affinity repeat = %v, want still 1", v)
	}
}

func TestHedgeSuppressedByArmedFault(t *testing.T) {
	faults := faultinject.New()
	router, reg := newTestRouter(t, 2, func(c *Config) {
		c.HedgeAfter = 10 * time.Millisecond
		c.Faults = faults
	})
	faults.Inject("cluster/peer", faultinject.Fault{Delay: 150 * time.Millisecond, Times: 1})
	faults.Inject("cluster/hedge", faultinject.Fault{Err: fmt.Errorf("no hedging today")})

	if w := postRouter(t, router, "/v1/discover", discoverBody("")); w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if v := reg.Counter("boundary_cluster_hedges_fired_total", "").Value(); v != 0 {
		t.Errorf("hedges_fired_total = %v, want 0 (suppressed)", v)
	}
	if faults.Fired("cluster/hedge") == 0 {
		t.Error("cluster/hedge hook was never reached")
	}
}

// TestStreamReroutesAroundDeadPeer kills one replica (every attempt on it
// fails) under a 30-document stream and asserts the no-loss/no-duplication
// contract: every sequence number appears exactly once, every document
// succeeds, and the failures reroute without moving the dead peer out of the
// rotation — only membership suspicion does that.
func TestStreamReroutesAroundDeadPeer(t *testing.T) {
	faults := faultinject.New()
	router, reg := newTestRouter(t, 3, func(c *Config) { c.Faults = faults })
	faults.Inject("cluster/peer/p0", faultinject.Fault{Err: fmt.Errorf("peer p0 is dead")})

	const docs = 30
	var in bytes.Buffer
	for i := 0; i < docs; i++ {
		line, _ := json.Marshal(map[string]string{
			"html": paperdoc.Figure2 + fmt.Sprintf("<!-- doc %d -->", i),
		})
		fmt.Fprintf(&in, "%s\n", line)
	}
	w := postRouter(t, router, "/v1/discover/stream", in.String())
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d", w.Code)
	}

	seen := make(map[int]int)
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var o pipeline.Outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			t.Fatalf("bad outcome line %q: %v", sc.Text(), err)
		}
		seen[o.Seq]++
		if o.Error != "" {
			t.Errorf("doc %d failed: %s", o.Seq, o.Error)
		}
		if o.Separator != "hr" {
			t.Errorf("doc %d separator = %q, want hr", o.Seq, o.Separator)
		}
	}
	if len(seen) != docs {
		t.Fatalf("got %d distinct documents, want %d", len(seen), docs)
	}
	for i := 0; i < docs; i++ {
		if seen[i] != 1 {
			t.Errorf("seq %d emitted %d times, want exactly once", i, seen[i])
		}
	}
	if v := reg.Counter("boundary_cluster_reroutes_total", "").Value(); v < 1 {
		t.Errorf("reroutes_total = %v, want >= 1", v)
	}
	if v := reg.Counter("boundary_cluster_requests_total", "", "peer", "p0", "outcome", "transport").Value(); v < 1 {
		t.Errorf("requests_total{p0, transport} = %v, want >= 1", v)
	}
	if v := reg.Counter("boundary_cluster_ejections_total", "", "peer", "p0").Value(); v != 0 {
		t.Errorf("ejections_total{p0} = %v, want 0 (transport failures keep no streak)", v)
	}
}

// TestAllPeersDownAnswersCleanly proves total backend loss yields prompt
// 503s (interactive) and inline per-document errors (batch, stream) — never
// a hang.
func TestAllPeersDownAnswersCleanly(t *testing.T) {
	faults := faultinject.New()
	router, _ := newTestRouter(t, 3, func(c *Config) { c.Faults = faults })
	faults.Inject("cluster/peer", faultinject.Fault{Err: fmt.Errorf("backend gone")})

	done := make(chan struct{})
	go func() {
		defer close(done)

		if w := postRouter(t, router, "/v1/discover", discoverBody("")); w.Code != http.StatusServiceUnavailable {
			t.Errorf("discover = %d, want 503: %s", w.Code, w.Body)
		}

		batch := fmt.Sprintf(`{"documents": [%s, %s]}`, discoverBody(""), discoverBody("y"))
		bw := postRouter(t, router, "/v1/discover/batch", batch)
		if bw.Code != http.StatusOK {
			t.Errorf("batch = %d, want 200 with inline errors", bw.Code)
		}
		var parsed struct {
			Results []struct {
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(bw.Body.Bytes(), &parsed); err != nil {
			t.Errorf("batch body: %v", err)
		}
		for i, res := range parsed.Results {
			if !strings.Contains(res.Error, "backend gone") && !strings.Contains(res.Error, "no healthy peers") {
				t.Errorf("batch doc %d error = %q, want a cluster failure", i, res.Error)
			}
		}

		sw := postRouter(t, router, "/v1/discover/stream", discoverBody("")+"\n")
		var o pipeline.Outcome
		if err := json.Unmarshal(bytes.TrimSpace(sw.Body.Bytes()), &o); err != nil {
			t.Errorf("stream body %q: %v", sw.Body, err)
		} else if o.Error == "" {
			t.Error("stream outcome has no inline error with every peer down")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("requests against a fully-dead cluster hung")
	}
}

// TestRouteHookFires pins the cluster/route hook point: an armed error
// fails routing before any peer is touched.
func TestRouteHookFires(t *testing.T) {
	faults := faultinject.New()
	router, _ := newTestRouter(t, 2, func(c *Config) { c.Faults = faults })
	faults.Inject("cluster/route", faultinject.Fault{Err: fmt.Errorf("routing vetoed"), Times: 1})
	if w := postRouter(t, router, "/v1/discover", discoverBody("")); w.Code != http.StatusServiceUnavailable {
		t.Errorf("vetoed route = %d, want 503", w.Code)
	}
	if faults.Fired("cluster/peer") != 0 {
		t.Error("peer attempted despite the route being vetoed")
	}
	if w := postRouter(t, router, "/v1/discover", discoverBody("")); w.Code != http.StatusOK {
		t.Errorf("after fault consumed: %d", w.Code)
	}
}

// TestForwardedDocumentAnsweredByReceiver: a three-member fleet over real
// HTTP, each member's handler forwarding through its own router. The
// document enters at the member that is neither its owner nor its ring
// successor; the owner's discovery stalls, so the entry's hedge goes to the
// successor. The successor must answer the hedge itself: routing it on to
// the stalled owner would ask the owner twice and make the hedge wait on
// the owner's second answer.
func TestForwardedDocumentAnsweredByReceiver(t *testing.T) {
	names := []string{"m0", "m1", "m2"}
	order := newRing(names).order(discoverKey(""))
	owner, successor, entry := order[0], order[1], order[2]

	servers := make([]*httptest.Server, len(names))
	urls := make([]string, len(names))
	for i := range names {
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
	}
	faults := make([]*faultinject.Set, len(names))
	for i, name := range names {
		faults[i] = faultinject.New()
		var node *httpapi.Server
		var peers []Peer
		for j, peer := range names {
			if j == i {
				peers = append(peers, NewLocalPeer(name, func(ctx context.Context, body []byte) (int, []byte) {
					return node.DiscoverLocal(ctx, body)
				}, nil))
			} else {
				peers = append(peers, NewHTTPPeer(peer, urls[j], nil))
			}
		}
		r, err := NewRouter(Config{Peers: peers, HedgeAfter: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		node = newNode(t, httpapi.Config{CacheSize: 64, Faults: faults[i], Forward: r.Forward})
		servers[i].Config.Handler = node
		servers[i].Start()
		t.Cleanup(servers[i].Close)
	}
	// Far longer than the test: the hedge's answer cancels the stall.
	faults[owner].Inject("httpapi/discover", faultinject.Fault{Delay: 30 * time.Second, Times: 1})

	resp, err := http.Post(urls[entry]+"/v1/discover", "application/json", strings.NewReader(discoverBody("")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, got)
	}
	single := postRouter(t, httpapi.NewHandler(httpapi.Config{}), "/v1/discover", discoverBody(""))
	if !bytes.Equal(got, single.Body.Bytes()) {
		t.Errorf("fleet answer differs from a single node's:\n got %s\nwant %s", got, single.Body)
	}
	if n := faults[owner].Fired("httpapi/discover"); n != 1 {
		t.Errorf("owner %s ran discovery %d times, want 1 (the hedge must not be routed back to it)", names[owner], n)
	}
	if n := faults[successor].Fired("httpapi/discover"); n != 1 {
		t.Errorf("successor %s ran discovery %d times, want 1 (it answers the hedge)", names[successor], n)
	}
	if n := faults[entry].Fired("httpapi/discover"); n != 0 {
		t.Errorf("entry %s ran discovery %d times, want 0 (it owns no share of this document)", names[entry], n)
	}
}
