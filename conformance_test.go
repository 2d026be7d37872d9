package repro

// Differential conformance suite: every serving surface of the system must
// give byte-for-byte the same discovery answer for the same document. For
// each document of the 20-site test corpus the suite runs
//
//	core.Discover            (the library's synchronous entry point)
//	core.DiscoverContext     (the cancellable entry point)
//	POST /v1/discover        (both the cache miss and the cache hit)
//	POST /v1/discover/batch  (the concurrent batch endpoint)
//	POST /v1/discover/stream (the streaming bulk surface)
//	pipeline.Engine          (the bulk engine cmd/bulk wires up)
//
// and requires the six answers to agree on separator, top tags, compound
// certainty scores, per-heuristic rankings, and candidate sets. A
// disagreement means one surface drifted from the shared pipeline —
// exactly the regression class this suite pins down. Run under -race it
// doubles as a concurrency check on the batch and stream paths.
//
// TestClusterConformance extends the matrix to the scale-out tier: a fleet
// entered through a node handler whose discover documents a consistent-hash
// router spreads over three replicas (in-process nodes in one topology,
// real HTTP servers in the other) must be byte-for-byte indistinguishable
// from a single node on the interactive, cached, batch, and stream
// surfaces.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// wireResult is the canonical cross-surface answer: the wire shape shared by
// /v1/discover, batch, stream, and the bulk engine, with empty collections
// normalized to nil so JSON round-trips compare equal to in-process results.
type wireResult struct {
	Separator  string               `json:"separator"`
	TopTags    []string             `json:"top_tags"`
	Scores     []wireScore          `json:"scores"`
	Rankings   map[string][]wireRow `json:"rankings"`
	Candidates []wireCand           `json:"candidates"`
	Subtree    string               `json:"subtree"`
	Degraded   bool                 `json:"degraded"`
	Failed     []string             `json:"failed_heuristics"`
}

type wireScore struct {
	Tag string  `json:"tag"`
	CF  float64 `json:"cf"`
}

type wireRow struct {
	Tag  string `json:"tag"`
	Rank int    `json:"rank"`
}

type wireCand struct {
	Tag   string `json:"tag"`
	Count int    `json:"count"`
}

// normalize maps empty collections to nil, in place.
func (w *wireResult) normalize() *wireResult {
	if len(w.TopTags) == 0 {
		w.TopTags = nil
	}
	if len(w.Scores) == 0 {
		w.Scores = nil
	}
	if len(w.Rankings) == 0 {
		w.Rankings = nil
	}
	for k, rows := range w.Rankings {
		if len(rows) == 0 {
			delete(w.Rankings, k)
		}
	}
	if len(w.Candidates) == 0 {
		w.Candidates = nil
	}
	if len(w.Failed) == 0 {
		w.Failed = nil
	}
	return w
}

// fromCore converts a core.Result into the canonical wire shape.
func fromCore(res *core.Result) *wireResult {
	w := &wireResult{
		Separator: res.Separator,
		TopTags:   append([]string(nil), res.TopTags...),
		Subtree:   res.Subtree.Name,
		Degraded:  res.Degraded,
		Failed:    append([]string(nil), res.FailedHeuristics...),
	}
	for _, s := range res.Scores {
		w.Scores = append(w.Scores, wireScore{Tag: s.Tag, CF: s.CF})
	}
	if len(res.Rankings) > 0 {
		w.Rankings = make(map[string][]wireRow, len(res.Rankings))
		for name, ranking := range res.Rankings {
			rows := make([]wireRow, 0, len(ranking))
			for _, e := range ranking {
				rows = append(rows, wireRow{Tag: e.Tag, Rank: e.Rank})
			}
			w.Rankings[name] = rows
		}
	}
	for _, c := range res.Candidates {
		w.Candidates = append(w.Candidates, wireCand{Tag: c.Name, Count: c.Count})
	}
	return w.normalize()
}

// decodeWire parses one surface's JSON answer into the canonical shape.
func decodeWire(t *testing.T, data []byte) *wireResult {
	t.Helper()
	var w wireResult
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return w.normalize()
}

// conformanceServer runs the full HTTP handler with the cache enabled, so
// the cached path is part of the matrix.
func conformanceServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(httpapi.NewHandler(httpapi.Config{CacheSize: 64}))
	t.Cleanup(srv.Close)
	return srv
}

func conformancePost(t *testing.T, url string, body any) []byte {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// TestConformanceAcrossSurfaces is the differential suite over the full
// 20-site test corpus.
func TestConformanceAcrossSurfaces(t *testing.T) {
	docs := corpus.TestDocuments()
	srv := conformanceServer(t)

	// Reference answers: the synchronous library entry point.
	want := make([]*wireResult, len(docs))
	for i, d := range docs {
		res, err := core.Discover(d.HTML, core.Options{
			Ontology: BuiltinOntology(string(d.Site.Domain)),
		})
		if err != nil {
			t.Fatalf("%s: Discover: %v", d.Site.Name, err)
		}
		want[i] = fromCore(res)
	}

	t.Run("DiscoverContext", func(t *testing.T) {
		for i, d := range docs {
			res, err := core.DiscoverContext(context.Background(), d.HTML, core.Options{
				Ontology: BuiltinOntology(string(d.Site.Domain)),
			})
			if err != nil {
				t.Fatalf("%s: %v", d.Site.Name, err)
			}
			if got := fromCore(res); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: DiscoverContext disagrees with Discover:\n got %+v\nwant %+v",
					d.Site.Name, got, want[i])
			}
		}
	})

	t.Run("ByteArena", func(t *testing.T) {
		// The serving hot path: one arena reused across the whole corpus,
		// []byte input. Must be bit-identical to the nil-arena answers on
		// every document.
		arena := tagtree.AcquireArena()
		defer arena.Release()
		for i, d := range docs {
			res, err := core.DiscoverBytesContext(context.Background(), []byte(d.HTML), core.Options{
				Ontology: BuiltinOntology(string(d.Site.Domain)),
				Arena:    arena,
			})
			if err != nil {
				t.Fatalf("%s: %v", d.Site.Name, err)
			}
			// fromCore copies everything compared, so the next iteration's
			// arena reset cannot corrupt this document's snapshot.
			if got := fromCore(res); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: DiscoverBytesContext (arena) disagrees with Discover:\n got %+v\nwant %+v",
					d.Site.Name, got, want[i])
			}
		}
	})

	t.Run("HTTPMissAndHit", func(t *testing.T) {
		for _, label := range []string{"miss", "hit"} {
			for i, d := range docs {
				body := conformancePost(t, srv.URL+"/v1/discover", map[string]any{
					"html": d.HTML, "ontology": string(d.Site.Domain),
				})
				if got := decodeWire(t, body); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: /v1/discover (%s) disagrees:\n got %+v\nwant %+v",
						d.Site.Name, label, got, want[i])
				}
			}
		}
	})

	t.Run("Batch", func(t *testing.T) {
		var documents []map[string]any
		for _, d := range docs {
			documents = append(documents, map[string]any{
				"html": d.HTML, "ontology": string(d.Site.Domain),
			})
		}
		body := conformancePost(t, srv.URL+"/v1/discover/batch", map[string]any{"documents": documents})
		var parsed struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &parsed); err != nil {
			t.Fatal(err)
		}
		if len(parsed.Results) != len(docs) {
			t.Fatalf("batch returned %d results, want %d", len(parsed.Results), len(docs))
		}
		for i, raw := range parsed.Results {
			if got := decodeWire(t, raw); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: batch disagrees:\n got %+v\nwant %+v",
					docs[i].Site.Name, got, want[i])
			}
		}
	})

	t.Run("Stream", func(t *testing.T) {
		var in bytes.Buffer
		for _, d := range docs {
			line, err := json.Marshal(map[string]any{
				"html": d.HTML, "ontology": string(d.Site.Domain),
			})
			if err != nil {
				t.Fatal(err)
			}
			in.Write(line)
			in.WriteByte('\n')
		}
		resp, err := http.Post(srv.URL+"/v1/discover/stream", "application/x-ndjson", &in)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status = %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		i := 0
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			if i >= len(docs) {
				t.Fatalf("stream returned more lines than documents: %s", sc.Text())
			}
			if got := decodeWire(t, sc.Bytes()); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: stream disagrees:\n got %+v\nwant %+v",
					docs[i].Site.Name, got, want[i])
			}
			i++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if i != len(docs) {
			t.Fatalf("stream returned %d lines, want %d", i, len(docs))
		}
	})

	t.Run("BulkEngine", func(t *testing.T) {
		var tasks []*pipeline.Task
		for _, d := range docs {
			tasks = append(tasks, &pipeline.Task{
				Mode:     "html",
				Doc:      d.HTML,
				Ontology: string(d.Site.Domain),
			})
		}
		var out bytes.Buffer
		eng := pipeline.New(pipeline.Config{Workers: 4})
		stats, err := eng.Run(context.Background(),
			pipeline.NewSliceSource(tasks), pipeline.NewWriterSink(&out, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.OK != len(docs) {
			t.Fatalf("bulk stats = %+v", stats)
		}
		i := 0
		for _, line := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if got := decodeWire(t, line); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: bulk engine disagrees:\n got %+v\nwant %+v",
					docs[i].Site.Name, got, want[i])
			}
			i++
		}
		if i != len(docs) {
			t.Fatalf("bulk engine returned %d outcomes, want %d", i, len(docs))
		}
	})
}

// TestConformanceXML extends the matrix to the XML mode on a synthetic feed:
// library, HTTP, stream, and bulk engine must agree there too.
func TestConformanceXML(t *testing.T) {
	feed := `<catalog>` + strings.Repeat(`<item><title>t</title><price>p</price></item>`, 6) + `</catalog>`
	srv := conformanceServer(t)

	res, err := DiscoverXML(feed, Options{SeparatorList: []string{"item"}})
	if err != nil {
		t.Fatal(err)
	}
	want := fromCore(res)

	arena := tagtree.AcquireArena()
	bres, err := core.DiscoverXMLBytesContext(context.Background(), []byte(feed), core.Options{
		SeparatorList: []string{"item"},
		Arena:         arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fromCore(bres)
	arena.Release()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DiscoverXMLBytesContext (arena) disagrees:\n got %+v\nwant %+v", got, want)
	}

	body := conformancePost(t, srv.URL+"/v1/discover", map[string]any{
		"xml": feed, "separator_list": []string{"item"},
	})
	if got := decodeWire(t, body); !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/discover (xml) disagrees:\n got %+v\nwant %+v", got, want)
	}

	line, _ := json.Marshal(map[string]any{"xml": feed, "separator_list": []string{"item"}})
	resp, err := http.Post(srv.URL+"/v1/discover/stream", "application/x-ndjson",
		bytes.NewReader(append(line, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := decodeWire(t, bytes.TrimSpace(buf.Bytes())); !reflect.DeepEqual(got, want) {
		t.Errorf("stream (xml) disagrees:\n got %+v\nwant %+v", got, want)
	}

	var out bytes.Buffer
	eng := pipeline.New(pipeline.Config{})
	if _, err := eng.Run(context.Background(),
		pipeline.NewSliceSource([]*pipeline.Task{{
			Mode: "xml", Doc: feed, SeparatorList: []string{"item"},
		}}),
		pipeline.NewWriterSink(&out, nil), nil); err != nil {
		t.Fatal(err)
	}
	if got := decodeWire(t, bytes.TrimSpace(out.Bytes())); !reflect.DeepEqual(got, want) {
		t.Errorf("bulk engine (xml) disagrees:\n got %+v\nwant %+v", got, want)
	}
}

// TestTemplateFastPathConformance is the template-store layer of the
// differential suite: a server answering from the learned-wrapper fast path
// (docs/WRAPPER.md) must be byte-for-byte indistinguishable from a server
// that has no store at all, for every corpus document — on the cold request
// that learns the wrapper AND the warm request served from it. Caching is
// disabled on every node so the result cache cannot mask which path
// produced the bytes, and store counters prove the warm pass really took
// the fast path rather than quietly falling back to full discovery.
func TestTemplateFastPathConformance(t *testing.T) {
	docs := corpus.TestDocuments()

	// Reference answers: a template-free, cache-free server.
	ref := httptest.NewServer(httpapi.NewHandler(httpapi.Config{}))
	t.Cleanup(ref.Close)

	bodies := make([][]byte, len(docs))
	for i, d := range docs {
		b, err := json.Marshal(map[string]any{
			"html": d.HTML, "ontology": string(d.Site.Domain),
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	want := make([][]byte, len(docs))
	for i := range docs {
		code, body := postRaw(t, ref.URL+"/v1/discover", "application/json", bodies[i])
		if code != http.StatusOK {
			t.Fatalf("%s: reference status %d", docs[i].Site.Name, code)
		}
		want[i] = body
	}

	// checkPasses drives the cold (learning) and warm (fast path) passes
	// against one templated URL and diffs every response against the
	// template-free reference.
	checkPasses := func(t *testing.T, url string) {
		for _, label := range []string{"cold", "warm"} {
			for i, d := range docs {
				code, got := postRaw(t, url+"/v1/discover", "application/json", bodies[i])
				if code != http.StatusOK {
					t.Fatalf("%s (%s): status %d", d.Site.Name, label, code)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("%s (%s): templated bytes differ from template-free reference:\n got %s\nwant %s",
						d.Site.Name, label, got, want[i])
				}
			}
		}
	}

	// assertFastPath proves the passes went where they should have: every
	// document missed once (and was learned), then hit once.
	assertFastPath := func(t *testing.T, store *template.Store) {
		stats := store.Stats()
		if stats.Entries != len(docs) || stats.Stores != float64(len(docs)) {
			t.Errorf("cold pass learned %d entries (%v stores), want %d",
				stats.Entries, stats.Stores, len(docs))
		}
		if stats.Misses != float64(len(docs)) || stats.Hits != float64(len(docs)) {
			t.Errorf("store saw %v misses / %v hits, want %d / %d",
				stats.Misses, stats.Hits, len(docs), len(docs))
		}
	}

	t.Run("SingleNode", func(t *testing.T) {
		store, err := template.Open(template.Config{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		srv := httptest.NewServer(httpapi.NewHandler(httpapi.Config{Templates: store}))
		t.Cleanup(srv.Close)
		checkPasses(t, srv.URL)
		assertFastPath(t, store)
	})

	// Three replicas holding the same *Store, an in-process wiring only
	// (each cmd/serve node opens its own store): wherever the router lands
	// the cold request, the learned wrapper is visible to every replica, so
	// the warm pass hits regardless of routing.
	t.Run("ThreeReplicasSharedStore", func(t *testing.T) {
		store, err := template.Open(template.Config{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		srv := newInProcessFleet(t, 3, func(int) httpapi.Config { return httpapi.Config{Templates: store} })
		checkPasses(t, srv.URL)
		assertFastPath(t, store)
	})

	// Three replicas with one store each — the cmd/serve fleet wiring. The
	// router sends a document to the same owner on both passes, so the
	// owner learns it cold and serves it warm: summed over the replicas,
	// every document missed once, was stored once and hit once.
	t.Run("ThreeReplicasOwnStores", func(t *testing.T) {
		stores := make([]*template.Store, 3)
		for i := range stores {
			store, err := template.Open(template.Config{Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			stores[i] = store
		}
		srv := newInProcessFleet(t, 3, func(i int) httpapi.Config { return httpapi.Config{Templates: stores[i]} })
		checkPasses(t, srv.URL)
		var sum template.Stats
		for _, store := range stores {
			st := store.Stats()
			sum.Entries += st.Entries
			sum.Misses += st.Misses
			sum.Stores += st.Stores
			sum.Hits += st.Hits
		}
		n := float64(len(docs))
		if sum.Entries != len(docs) || sum.Misses != n || sum.Stores != n || sum.Hits != n {
			t.Errorf("replicas summed %d entries, %v misses, %v stores, %v hits; want %d of each",
				sum.Entries, sum.Misses, sum.Stores, sum.Hits, len(docs))
		}
	})
}

// failDiff is a debugging aid: render a wireResult compactly when the
// conformance suite reports a disagreement.
func (w *wireResult) String() string {
	data, err := json.Marshal(w)
	if err != nil {
		return fmt.Sprintf("%#v", *w)
	}
	return string(data)
}

// newClusterServer serves a fleet entry node: a node handler with no share
// of the ring whose discover documents the router sends to the given
// members.
func newClusterServer(t *testing.T, peers []cluster.Peer) *httptest.Server {
	t.Helper()
	router, err := cluster.NewRouter(cluster.Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewHandler(httpapi.Config{Forward: router.Forward}))
	t.Cleanup(srv.Close)
	return srv
}

// newInProcessFleet serves an n-node in-process fleet wired the way
// cmd/serve wires a node: replica-0's handler, forwarding through the
// router, is the entry, and the router reaches every replica — replica-0
// included — by direct call (cluster.LocalPeer over DiscoverLocal).
// Replica i runs with cfg(i).
func newInProcessFleet(t *testing.T, n int, cfg func(i int) httpapi.Config) *httptest.Server {
	t.Helper()
	nodes := make([]*httpapi.Server, n)
	var peers []cluster.Peer
	for i := range nodes {
		peers = append(peers, cluster.NewLocalPeer(fmt.Sprintf("replica-%d", i),
			func(ctx context.Context, body []byte) (int, []byte) { return nodes[i].DiscoverLocal(ctx, body) }, nil))
	}
	router, err := cluster.NewRouter(cluster.Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		nodeCfg := cfg(i)
		if i == 0 {
			nodeCfg.Forward = router.Forward
		}
		if nodes[i], err = httpapi.NewServer(nodeCfg); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(nodes[0])
	t.Cleanup(srv.Close)
	return srv
}

// postRaw posts pre-marshaled bytes and returns status and body verbatim.
func postRaw(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestClusterConformance is the cluster layer of the differential suite: a
// router over three replicas — in-process backends in one topology, real
// HTTP servers in the other — must answer byte-for-byte what a single node
// answers, for every corpus document, on the interactive (cache miss AND
// hit), batch, and stream surfaces. The cluster being routed, hashed, and
// hedge-capable must be invisible in the bytes.
func TestClusterConformance(t *testing.T) {
	docs := corpus.TestDocuments()
	single := conformanceServer(t)

	topologies := map[string]func(t *testing.T) *httptest.Server{
		"InProcessReplicas": func(t *testing.T) *httptest.Server {
			return newInProcessFleet(t, 3, func(int) httpapi.Config { return httpapi.Config{CacheSize: 64} })
		},
		"HTTPPeers": func(t *testing.T) *httptest.Server {
			var peers []cluster.Peer
			for i := 0; i < 3; i++ {
				backend := httptest.NewServer(httpapi.NewHandler(httpapi.Config{CacheSize: 64}))
				t.Cleanup(backend.Close)
				peers = append(peers, cluster.NewHTTPPeer(fmt.Sprintf("replica-%d", i), backend.URL, nil))
			}
			return newClusterServer(t, peers)
		},
	}

	// One marshaling of every request, shared by both sides of each diff.
	bodies := make([][]byte, len(docs))
	for i, d := range docs {
		b, err := json.Marshal(map[string]any{
			"html": d.HTML, "ontology": string(d.Site.Domain),
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	for name, build := range topologies {
		t.Run(name, func(t *testing.T) {
			srv := build(t)

			t.Run("DiscoverMissAndHit", func(t *testing.T) {
				for _, label := range []string{"miss", "hit"} {
					for i, d := range docs {
						wantCode, want := postRaw(t, single.URL+"/v1/discover", "application/json", bodies[i])
						gotCode, got := postRaw(t, srv.URL+"/v1/discover", "application/json", bodies[i])
						if gotCode != wantCode {
							t.Fatalf("%s (%s): cluster status %d, single node %d",
								d.Site.Name, label, gotCode, wantCode)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("%s (%s): cluster bytes differ from single node:\n got %s\nwant %s",
								d.Site.Name, label, got, want)
						}
					}
				}
			})

			t.Run("Batch", func(t *testing.T) {
				var documents []json.RawMessage
				for i := range docs {
					documents = append(documents, bodies[i])
				}
				batch, err := json.Marshal(map[string]any{"documents": documents})
				if err != nil {
					t.Fatal(err)
				}
				wantCode, want := postRaw(t, single.URL+"/v1/discover/batch", "application/json", batch)
				gotCode, got := postRaw(t, srv.URL+"/v1/discover/batch", "application/json", batch)
				if gotCode != wantCode || wantCode != http.StatusOK {
					t.Fatalf("batch: cluster status %d, single node %d", gotCode, wantCode)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("batch: cluster bytes differ from single node:\n got %s\nwant %s", got, want)
				}
			})

			t.Run("Stream", func(t *testing.T) {
				var in bytes.Buffer
				for i := range docs {
					in.Write(bodies[i])
					in.WriteByte('\n')
				}
				wantCode, want := postRaw(t, single.URL+"/v1/discover/stream", "application/x-ndjson", in.Bytes())
				gotCode, got := postRaw(t, srv.URL+"/v1/discover/stream", "application/x-ndjson", in.Bytes())
				if gotCode != wantCode || wantCode != http.StatusOK {
					t.Fatalf("stream: cluster status %d, single node %d", gotCode, wantCode)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("stream: cluster bytes differ from single node:\n got %s\nwant %s", got, want)
				}
			})
		})
	}
}
