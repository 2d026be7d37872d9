package repro

// Churn conformance suite: the cluster must stay byte-for-byte identical to
// a single node while its peer set changes under it. For every document of
// the 20-site test corpus the suite drives the consistent-hash router
// through the three membership events a production fleet sees —
//
//	join            a new replica enters the ring mid-traffic
//	graceful leave  a replica is removed from the rotation mid-traffic
//	hard kill       a replica's process dies mid-request, no goodbye
//
// — and requires every answer during and after the event to match the
// single-node reference exactly. The streaming surface runs all three
// events inside one NDJSON request and accounts for every line: exactly one
// response per input document, in input order, none lost, none duplicated.
// This is the conformance contract behind the membership section of
// docs/SCALING.md: membership is an availability mechanism, never an
// answer-changing one.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/httpapi"
)

// churnBackend is one real-HTTP replica that the suite can remove cleanly
// or kill without warning.
type churnBackend struct {
	name string
	srv  *httptest.Server
}

func newChurnBackend(t *testing.T, name string) *churnBackend {
	t.Helper()
	srv := httptest.NewServer(httpapi.NewHandler(httpapi.Config{CacheSize: 64}))
	t.Cleanup(srv.Close)
	return &churnBackend{name: name, srv: srv}
}

// peer wraps the backend as a ring member under its stable name, the way
// membership names remote peers.
func (b *churnBackend) peer() cluster.Peer {
	return cluster.NewHTTPPeer(b.name, b.srv.URL, nil)
}

// hardKill severs every established connection and stops the listener — the
// wire-level signature of a dead process, not a drained one.
func (b *churnBackend) hardKill() {
	b.srv.CloseClientConnections()
	b.srv.Close()
}

// newChurnRouter serves a fleet entry node that routes over the given
// backends and returns the router with it, so tests can mutate the peer set
// mid-traffic.
func newChurnRouter(t *testing.T, backends ...*churnBackend) (*cluster.Router, *httptest.Server) {
	t.Helper()
	var peers []cluster.Peer
	for _, b := range backends {
		peers = append(peers, b.peer())
	}
	router, err := cluster.NewRouter(cluster.Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewHandler(httpapi.Config{Forward: router.Forward}))
	t.Cleanup(srv.Close)
	return router, srv
}

// churnReference computes the single-node answer for every corpus document:
// the bytes every churn topology must reproduce.
func churnReference(t *testing.T, docs []*corpus.Document) (bodies, want [][]byte) {
	t.Helper()
	single := conformanceServer(t)
	bodies = make([][]byte, len(docs))
	want = make([][]byte, len(docs))
	for i, d := range docs {
		b, err := json.Marshal(map[string]any{
			"html": d.HTML, "ontology": string(d.Site.Domain),
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
		code, resp := postRaw(t, single.URL+"/v1/discover", "application/json", b)
		if code != http.StatusOK {
			t.Fatalf("%s: single-node reference answered %d: %s", d.Site.Name, code, resp)
		}
		want[i] = resp
	}
	return bodies, want
}

// driveThrough posts docs[from:to] through the router and requires every
// answer to match the reference byte-for-byte.
func driveThrough(t *testing.T, url string, docs []*corpus.Document, bodies, want [][]byte, from, to int, phase string) {
	t.Helper()
	for i := from; i < to; i++ {
		code, got := postRaw(t, url+"/v1/discover", "application/json", bodies[i])
		if code != http.StatusOK {
			t.Fatalf("%s (%s): cluster answered %d: %s", docs[i].Site.Name, phase, code, got)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("%s (%s): cluster bytes differ from single node:\n got %s\nwant %s",
				docs[i].Site.Name, phase, got, want[i])
		}
	}
}

func TestChurnConformance(t *testing.T) {
	docs := corpus.TestDocuments()
	bodies, want := churnReference(t, docs)
	third := len(docs) / 3

	// A replica joins the ring after a third of the traffic has flowed. The
	// ring rebalances — some documents change owner and recompute on the new
	// replica — but the bytes must not move.
	t.Run("Join", func(t *testing.T) {
		b0, b1 := newChurnBackend(t, "replica-0"), newChurnBackend(t, "replica-1")
		router, srv := newChurnRouter(t, b0, b1)

		driveThrough(t, srv.URL, docs, bodies, want, 0, third, "before join")
		joiner := newChurnBackend(t, "replica-2")
		if err := router.AddPeer(joiner.peer()); err != nil {
			t.Fatal(err)
		}
		driveThrough(t, srv.URL, docs, bodies, want, third, len(docs), "after join")
		// Second full pass: warm caches on a rebalanced ring, same bytes.
		driveThrough(t, srv.URL, docs, bodies, want, 0, len(docs), "warm after join")
	})

	// A replica is removed from the rotation mid-traffic; its documents
	// reassign to the survivors and recompute there, byte-identically.
	t.Run("GracefulLeave", func(t *testing.T) {
		b0, b1, b2 := newChurnBackend(t, "replica-0"), newChurnBackend(t, "replica-1"), newChurnBackend(t, "replica-2")
		router, srv := newChurnRouter(t, b0, b1, b2)

		driveThrough(t, srv.URL, docs, bodies, want, 0, third, "before leave")
		if !router.RemovePeer("replica-1") {
			t.Fatal("replica-1 was not in the ring")
		}
		driveThrough(t, srv.URL, docs, bodies, want, third, len(docs), "after leave")
		driveThrough(t, srv.URL, docs, bodies, want, 0, len(docs), "warm after leave")
	})

	// A replica dies without a goodbye: connections severed, listener gone,
	// still in the ring and in the rotation — no membership layer runs here
	// to suspect it. Every request — including those whose preferred owner
	// is the corpse — must pay one failed attempt, fail over to a survivor,
	// and answer the same bytes, with no client-visible error.
	t.Run("HardKill", func(t *testing.T) {
		b0, b1, b2 := newChurnBackend(t, "replica-0"), newChurnBackend(t, "replica-1"), newChurnBackend(t, "replica-2")
		_, srv := newChurnRouter(t, b0, b1, b2)

		driveThrough(t, srv.URL, docs, bodies, want, 0, third, "before kill")
		b1.hardKill()
		driveThrough(t, srv.URL, docs, bodies, want, third, len(docs), "after kill")
		driveThrough(t, srv.URL, docs, bodies, want, 0, len(docs), "warm after kill")
	})

	// The streaming surface under all three events at once: one NDJSON
	// request carrying every corpus document three times over, with a join,
	// a graceful leave, and a hard kill fired while lines are in flight.
	// The response must carry exactly one line per input line, in input
	// order, each byte-identical to the single node — no document lost to a
	// dying peer, none answered twice by a rerouted retry.
	t.Run("StreamNoLossNoDuplication", func(t *testing.T) {
		const rounds = 3
		b0, b1, b2 := newChurnBackend(t, "replica-0"), newChurnBackend(t, "replica-1"), newChurnBackend(t, "replica-2")
		router, srv := newChurnRouter(t, b0, b1, b2)

		var in bytes.Buffer
		for r := 0; r < rounds; r++ {
			for i := range docs {
				in.Write(bodies[i])
				in.WriteByte('\n')
			}
		}
		total := rounds * len(docs)

		resp, err := http.Post(srv.URL+"/v1/discover/stream", "application/x-ndjson", &in)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream answered %d", resp.StatusCode)
		}

		// Churn points: fire each event after the corresponding share of
		// the response has streamed back, so lines are genuinely in flight.
		joiner := newChurnBackend(t, "replica-3")
		events := map[int]func(){
			total / 4: func() {
				if err := router.AddPeer(joiner.peer()); err != nil {
					t.Error(err)
				}
			},
			total / 2:     func() { router.RemovePeer("replica-1") },
			3 * total / 4: func() { b2.hardKill() },
		}

		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		n := 0
		for sc.Scan() {
			line := sc.Bytes()
			if n >= total {
				t.Fatalf("stream emitted more than %d lines; line %d: %s", total, n+1, line)
			}
			ref := want[n%len(docs)]
			// Stream lines are the discover answer plus a sequence number;
			// compare the answer fields through the wire shape.
			var gotLine, wantLine wireResult
			if err := json.Unmarshal(line, &gotLine); err != nil {
				t.Fatalf("line %d is not a result: %v: %s", n, err, line)
			}
			if err := json.Unmarshal(ref, &wantLine); err != nil {
				t.Fatal(err)
			}
			if gotLine.String() != wantLine.String() {
				t.Errorf("line %d differs from single node:\n got %s\nwant %s", n, gotLine.String(), wantLine.String())
			}
			if fire, ok := events[n]; ok {
				fire()
			}
			n++
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("stream tore after %d lines: %v", n, err)
		}
		if n != total {
			t.Fatalf("stream emitted %d lines, want exactly %d (loss or duplication)", n, total)
		}
	})
}

// TestChurnEveryDocumentAnsweredOnceInterleaved drives interactive traffic
// concurrently with repeated join/leave churn and accounts for every
// request: each must answer exactly once with the single-node bytes, even
// while the ring is rebalancing under it. This is the request-accounting
// half of the churn contract (the stream test covers ordered bulk).
func TestChurnEveryDocumentAnsweredOnceInterleaved(t *testing.T) {
	docs := corpus.TestDocuments()
	bodies, want := churnReference(t, docs)

	b0, b1 := newChurnBackend(t, "replica-0"), newChurnBackend(t, "replica-1")
	router, srv := newChurnRouter(t, b0, b1)

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		// Membership churn loop: a third replica repeatedly joins and
		// leaves while the client drives traffic.
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			extra := newChurnBackend(t, fmt.Sprintf("flapper-%d", i))
			if err := router.AddPeer(extra.peer()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
			router.RemovePeer(extra.name)
			extra.srv.Close()
		}
	}()

	for pass := 0; pass < 3; pass++ {
		driveThrough(t, srv.URL, docs, bodies, want, 0, len(docs), fmt.Sprintf("churn pass %d", pass))
	}
	close(stop)
	<-churnDone
}
