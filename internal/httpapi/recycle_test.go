package httpapi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// recycleHook is the document pool's test hook (pipeline.recycleHook): it
// sees every document buffer handed back before the buffer returns to the
// pool. go:linkname reaches it, so the pipeline exports no setter for it.
//
//go:linkname recycleHook repro/internal/pipeline.recycleHook
var recycleHook func(buf []byte)

// poisonRecycled zeroes every document buffer handed back for the rest of
// the test and counts them in n. No corpus document or tag name holds a
// zero byte, so anything still viewing a recycled document afterwards
// shows up as a changed reply or a poisoned string.
func poisonRecycled(t *testing.T, n *atomic.Int64) {
	t.Helper()
	recycleHook = func(buf []byte) {
		n.Add(1)
		clear(buf)
	}
	t.Cleanup(func() { recycleHook = nil })
}

// recycleStep is one request of a recycling script: concurrent > 1 sends
// that many identical requests at once, with the leader's discovery
// delayed so the rest wait on it as single-flight followers.
type recycleStep struct {
	path, mode, doc, ontology string
	concurrent                int
}

// body encodes the step's envelope. owned capitalizes the keys, which only
// encoding/json takes, so the document is decoded into an owned string;
// otherwise the fast path decodes it into a pooled buffer, and every other
// body keeps <, > and & unescaped so both of its string paths run.
func (s recycleStep) body(t *testing.T, owned bool, i int) string {
	t.Helper()
	key := func(k string) string {
		if owned {
			return strings.ToUpper(k[:1]) + k[1:]
		}
		return k
	}
	env := map[string]string{key(s.mode): s.doc}
	if s.ontology != "" {
		env[key("ontology")] = s.ontology
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(i%2 == 0)
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// requests is how many requests the step sends.
func (s recycleStep) requests() int { return max(s.concurrent, 1) }

// recycleScript is the 220-document corpus as /v1/discover requests —
// armed, unarmed, corpus.Mangle'd and XML — with result-cache hits and
// concurrent identical requests among them, and a listing separated by a
// tag no built-in element names; with all set, every 5th document is also
// asked for with ?explain=1 and on /v1/records and /v1/extract.
func recycleScript(all bool) []recycleStep {
	var docs []*corpus.Document
	for _, d := range corpus.AllDomains {
		docs = append(docs, corpus.TrainingDocuments(d)...)
	}
	docs = append(docs, corpus.TestDocuments()...)
	var steps []recycleStep
	for i, d := range docs {
		dom := string(d.Site.Domain)
		armed := recycleStep{path: "/v1/discover", mode: "html", doc: d.HTML, ontology: dom}
		steps = append(steps, armed,
			recycleStep{path: "/v1/discover", mode: "html", doc: d.HTML},
			recycleStep{path: "/v1/discover", mode: "html", doc: corpus.Mangle(d.HTML, int64(i)), ontology: dom},
			recycleStep{path: "/v1/discover", mode: "xml", doc: d.HTML})
		if i%3 == 0 {
			steps = append(steps, armed) // a result-cache hit
		}
		if i%20 == 0 {
			// XML always runs the pipeline on a miss, so the leader takes
			// the delay and the rest follow it.
			steps = append(steps, recycleStep{path: "/v1/discover", mode: "xml",
				doc: corpus.Mangle(d.HTML, int64(-1-i)), concurrent: 4})
		}
		if all && i%5 == 0 {
			for _, path := range []string{"/v1/discover?explain=1", "/v1/records", "/v1/extract"} {
				s := armed
				s.path = path
				steps = append(steps, s)
			}
		}
	}
	// A listing whose separator is no built-in element: its tag name views
	// the document instead of the atom table, so every answer, trace and
	// wrapper naming it reads the document until it is encoded or copied.
	custom := recycleStep{path: "/v1/discover", mode: "html",
		doc: "<html><body><div>" + strings.Repeat("<entry>lot sold today</entry>\n", 8) + "</div></body></html>"}
	steps = append(steps, custom)
	if all {
		for _, path := range []string{"/v1/discover?explain=1", "/v1/records"} {
			s := custom
			s.path = path
			steps = append(steps, s)
		}
	}
	custom.mode = "xml"
	return append(steps, custom)
}

// recycleNode is one serving setup of the recycling tests: a metrics
// registry, a trace store keeping every trace, a request log, the result
// cache, and a wrapper store spot-checking every 3rd hit.
type recycleNode struct {
	handler http.Handler
	store   *template.Store // where discover answers are learned
	traces  *obs.TraceStore
	log     *bytes.Buffer
	faults  *faultinject.Set // the leader delay goes here
	reg     *obs.Registry    // counts single-flight followers
	forward atomic.Int64     // documents the entry forwarded
}

// newRecycleNode builds a single node, or with forward a fleet entry
// without cache or store whose Forward hands every discover document to a
// member's DiscoverLocal; the member has the full configuration. Entry and
// member share the log and the trace store.
func newRecycleNode(t *testing.T, forward bool) *recycleNode {
	t.Helper()
	store, err := template.Open(template.Config{SpotCheckEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	n := &recycleNode{
		store:  store,
		traces: obs.NewTraceStore(obs.TraceStoreConfig{Capacity: 1 << 13}),
		log:    new(bytes.Buffer),
		faults: faultinject.New(),
		reg:    obs.NewRegistry(),
	}
	logger := slog.New(slog.NewJSONHandler(n.log, nil))
	cfg := Config{
		Logger:    logger,
		Metrics:   n.reg,
		Traces:    n.traces,
		CacheSize: 1 << 12,
		Templates: store,
		Faults:    n.faults,
	}
	if !forward {
		n.handler = NewHandler(cfg)
		return n
	}
	member, _ := NewServer(cfg)
	n.handler = NewHandler(Config{
		Logger:  logger,
		Metrics: obs.NewRegistry(),
		Traces:  n.traces,
		Forward: func(ctx context.Context, _ [sha256.Size]byte, body []byte, _ bool) (int, []byte, int, error) {
			n.forward.Add(1)
			status, resp := member.DiscoverLocal(ctx, body)
			return status, resp, 1, nil
		},
	})
	return n
}

// run serves every step through the node in order and returns each
// request's status and reply.
func (n *recycleNode) run(t *testing.T, steps []recycleStep, owned bool) []string {
	t.Helper()
	serve := func(path, body string) string {
		w := httptest.NewRecorder()
		n.handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return fmt.Sprintf("%d %s", w.Code, w.Body)
	}
	var replies []string
	for i, s := range steps {
		body := s.body(t, owned, i)
		if s.concurrent <= 1 {
			replies = append(replies, serve(s.path, body))
			continue
		}
		n.faults.Inject("httpapi/discover", faultinject.Fault{Delay: 50 * time.Millisecond, Times: 1})
		got := make([]string, s.concurrent)
		var wg sync.WaitGroup
		for j := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[j] = serve(s.path, body)
			}()
		}
		wg.Wait()
		n.faults.Remove("httpapi/discover")
		replies = append(replies, got...)
	}
	return replies
}

// stepKey is the wrapper-store key a step's answer is learned under.
func stepKey(s recycleStep) template.Key {
	fp := template.FingerprintDoc(s.doc)
	if s.mode == "xml" {
		fp, _ = template.FingerprintTree(tagtree.ParseXML(s.doc))
	}
	return template.MakeKey(fp, template.Salt(s.mode, s.ontology, nil))
}

// checkRecycledServing runs the script through an owned-copy node and then,
// with every handed-back buffer poisoned, through a fresh node of the same
// kind, and holds the second to the first: the same replies, the same
// learned wrappers, every buffer handed back, and no zero byte in a stored
// trace or the request log.
func checkRecycledServing(t *testing.T, steps []recycleStep, forward bool) {
	var recycled atomic.Int64
	poisonRecycled(t, &recycled)
	ref := newRecycleNode(t, forward)
	want := ref.run(t, steps, true)
	if c := recycled.Load(); c != 0 {
		t.Fatalf("the owned-copy node handed back %d document buffers; its bodies must not take the fast path", c)
	}

	n := newRecycleNode(t, forward)
	got := n.run(t, steps, false)

	requests := 0
	for _, s := range steps {
		requests += s.requests()
	}
	if c := int64(requests) + n.forward.Load(); recycled.Load() != c {
		t.Errorf("%d document buffers came back, want %d", recycled.Load(), c)
	}
	if len(got) != len(want) {
		t.Fatalf("%d replies, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d differs from the owned-copy node's:\n got %.300s\nwant %.300s", i, got[i], want[i])
		}
	}
	var followers bytes.Buffer
	n.reg.WritePrometheus(&followers)
	if !bytes.Contains(followers.Bytes(), []byte("boundary_cache_inflight_dedup_total")) {
		t.Error("no request waited on an identical one in flight; the script lost its single-flight followers")
	}

	if n.store.Len() != ref.store.Len() {
		t.Errorf("store holds %d entries, owned-copy store %d", n.store.Len(), ref.store.Len())
	}
	for _, s := range steps {
		key := stepKey(s)
		e, ok := n.store.Lookup(key)
		w, wok := ref.store.Lookup(key)
		if ok != wok || ok && !e.Equal(w) {
			t.Fatalf("%s %.60q: stored entry %q (%v), owned-copy entry %q (%v)",
				s.mode, s.doc, fmt.Sprintf("%+v", e), ok, fmt.Sprintf("%+v", w), wok)
		}
	}

	poisoned := func(s string) bool { return strings.IndexByte(s, 0) >= 0 }
	traces := 0
	for _, sum := range n.traces.List() {
		id, _ := obs.ParseTraceID(sum.TraceID)
		frags, _ := n.traces.Get(id)
		for _, f := range frags {
			traces++
			for _, a := range append([]string{f.Name, f.StatusMsg}, f.RootAttrs...) {
				if poisoned(a) {
					t.Fatalf("trace %s root reads a recycled document: %q", f.Name, a)
				}
			}
			for _, sp := range f.Spans {
				for _, a := range append([]string{sp.Name}, sp.Attrs...) {
					if poisoned(a) {
						t.Fatalf("span %s reads a recycled document: %q", sp.Name, a)
					}
				}
			}
		}
	}
	if traces < requests {
		t.Errorf("trace store holds %d fragments for %d requests", traces, requests)
	}
	if log := n.log.String(); poisoned(log) || strings.Contains(log, `\u0000`) {
		t.Error("request log reads a recycled document")
	}
}

// TestRecycledServingCannotChangeAReply: every document buffer a handler
// hands back is zeroed as soon as it reaches the pool, and every reply,
// learned wrapper, trace and log line must still be what a node decoding
// owned copies gives — so nothing that outlives a reply views its
// document.
func TestRecycledServingCannotChangeAReply(t *testing.T) {
	t.Run("node", func(t *testing.T) { checkRecycledServing(t, recycleScript(true), false) })
	t.Run("forward", func(t *testing.T) { checkRecycledServing(t, recycleScript(false), true) })
}
