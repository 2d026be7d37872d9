package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// poison is what a handed-back document buffer is overwritten with while
// poisonRecycled is on: no corpus document or tag name contains it, so a
// reader still viewing a recycled document shows up as a changed answer or
// a poisoned string.
const poison = 0

// poisonRecycled overwrites every document buffer handed back for the rest
// of the test and counts them in *n.
func poisonRecycled(t *testing.T, n *int) {
	t.Helper()
	recycleHook = func(buf []byte) {
		*n++
		for i := range buf {
			buf[i] = poison
		}
	}
	t.Cleanup(func() { recycleHook = nil })
}

// bulkLine is one input document of the recycling tests.
type bulkLine struct {
	id, mode, doc, ontology, shard string
}

// recycleCorpus is the 220-document corpus as bulk lines: each document
// armed with its domain's ontology, unarmed, mangled, and parsed as XML
// (where every tag name is a view of the document).
func recycleCorpus() []bulkLine {
	var docs []*corpus.Document
	for _, d := range corpus.AllDomains {
		docs = append(docs, corpus.TrainingDocuments(d)...)
	}
	docs = append(docs, corpus.TestDocuments()...)
	var lines []bulkLine
	for i, d := range docs {
		name, dom := fmt.Sprintf("%s-%d", d.Site.Name, i), string(d.Site.Domain)
		lines = append(lines,
			bulkLine{name + "/armed", "html", d.HTML, dom, dom},
			bulkLine{name + "/unarmed", "html", d.HTML, "", ""},
			bulkLine{name + "/mangled", "html", corpus.Mangle(d.HTML, int64(i)), dom, "mangled"},
			bulkLine{name + "/xml", "xml", d.HTML, "", "xml"},
		)
	}
	return lines
}

// ndjsonInput encodes lines the way a bulk client does; every other line
// keeps <, > and & unescaped, so both the plain and the unescaping decode
// paths feed the recycled buffers.
func ndjsonInput(t *testing.T, lines []bulkLine) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, l := range lines {
		tl := taskLine{ID: l.id, Ontology: l.ontology, Shard: l.shard}
		if l.mode == "xml" {
			tl.XML = l.doc
		} else {
			tl.HTML = l.doc
		}
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(i%2 == 0)
		if err := enc.Encode(tl); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// referenceRun answers every line with core.DiscoverContext on an owned
// copy of its document, in input order, learning into store, and returns
// the NDJSON the engine must write.
func referenceRun(t *testing.T, lines []bulkLine, store *template.Store) []byte {
	t.Helper()
	var onts ontology.Cache
	var out []byte
	for seq, l := range lines {
		o := Outcome{Seq: seq, ID: l.id, Shard: l.shard}
		ont, err := onts.Resolve(l.ontology)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Ontology: ont, Templates: store, TemplateSalt: template.Salt(l.mode, l.ontology, nil)}
		doc := strings.Clone(l.doc)
		var res *core.Result
		if l.mode == "xml" {
			res, err = core.DiscoverXMLContext(context.Background(), doc, opts)
		} else {
			res, err = core.DiscoverContext(context.Background(), doc, opts)
		}
		if err != nil {
			o.Error = err.Error()
		} else {
			o.Result = NewResult(res)
		}
		if out, err = AppendOutcome(out, &o); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// lineKey is the wrapper-store key core files a line's answer under.
func lineKey(l bulkLine) template.Key {
	tree := tagtree.Parse(l.doc)
	if l.mode == "xml" {
		tree = tagtree.ParseXML(l.doc)
	}
	fp, _ := template.FingerprintTree(tree)
	return template.MakeKey(fp, template.Salt(l.mode, l.ontology, nil))
}

// recycleStore is the wrapper store both sides of a recycling test learn
// into: spot-checks on, so hits re-run discovery and compare entries too.
func recycleStore(t *testing.T) *template.Store {
	t.Helper()
	s, err := template.Open(template.Config{SpotCheckEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// checkRecycledRun runs src through an engine with the wrapper store,
// metrics and a trace attached, every handed-back buffer poisoned, and
// holds its output and learned entries to the owned-copy reference.
func checkRecycledRun(t *testing.T, src Source, lines []bulkLine) {
	t.Helper()
	wantStore := recycleStore(t)
	want := referenceRun(t, lines, wantStore)

	var recycled int
	poisonRecycled(t, &recycled)
	store := recycleStore(t)
	trace := obs.NewTrace()
	eng := New(Config{Workers: 4, Window: 8, Templates: store, Metrics: obs.NewRegistry(), Trace: trace})
	var got bytes.Buffer
	if _, err := eng.Run(context.Background(), src, NewWriterSink(&got, nil), nil); err != nil {
		t.Fatal(err)
	}
	if recycled != len(lines) {
		t.Fatalf("engine handed back %d document buffers, want %d", recycled, len(lines))
	}

	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("engine wrote %d lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d differs from discovery on an owned copy:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}

	if store.Len() != wantStore.Len() {
		t.Errorf("store holds %d entries, owned-copy store %d", store.Len(), wantStore.Len())
	}
	for _, l := range lines {
		key := lineKey(l)
		e, ok := store.Lookup(key)
		w, wok := wantStore.Lookup(key)
		if ok != wok || ok && !e.Equal(w) {
			t.Fatalf("%s: stored entry %+v (%v), owned-copy entry %+v (%v)", l.id, e, ok, w, wok)
		}
	}

	spans := trace.Spans()
	if len(spans) == 0 {
		t.Fatal("trace recorded no spans")
	}
	for _, s := range spans {
		for _, a := range s.Attrs {
			if strings.IndexByte(a, poison) >= 0 {
				t.Fatalf("span %s attribute %q reads a recycled document", s.Name, a)
			}
		}
	}
}

// TestRecycledDocumentsCannotChangeAnAnswer: every document buffer the
// engine hands back is overwritten as soon as it reaches the pool, and the
// run's output and learned wrappers must still be exactly what discovery
// gives on owned copies — so nothing the engine keeps past an outcome's
// write views the document.
func TestRecycledDocumentsCannotChangeAnAnswer(t *testing.T) {
	lines := recycleCorpus()
	t.Run("ndjson", func(t *testing.T) {
		checkRecycledRun(t, NewNDJSONSource(bytes.NewReader(ndjsonInput(t, lines)), 0), lines)
	})
	t.Run("dir", func(t *testing.T) {
		dir := t.TempDir()
		var files []bulkLine
		for i, l := range lines {
			if l.ontology != "" || i%8 > 4 {
				continue // one ontology and shard per directory run
			}
			name := fmt.Sprintf("%04d.%s", i, l.mode)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(l.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			files = append(files, bulkLine{name, l.mode, l.doc, "", "dir"})
		}
		src, err := NewDirSource(dir, "", "dir")
		if err != nil {
			t.Fatal(err)
		}
		checkRecycledRun(t, src, files)
	})
}

// TestDocBufsDropOversizedBuffers: a buffer over MaxPooledBytes handed back
// is left to the collector, so one large document cannot pin its size in
// the pool, while a buffer at the bound is pooled as before. sync.Pool
// promises nothing, so the pooled buffer only has to come back in one of a
// few rounds (never under -race, whose pool drops puts at random).
func TestDocBufsDropOversizedBuffers(t *testing.T) {
	returned := false
	for range 5 {
		big := getDocBuf(MaxPooledBytes + 1)
		PutDocBuf(big)
		if getDocBuf(1) == big {
			t.Fatalf("a %d-byte buffer came back from the pool; the bound is %d", cap(*big), MaxPooledBytes)
		}
		atBound := getDocBuf(MaxPooledBytes)
		PutDocBuf(atBound)
		returned = returned || getDocBuf(1) == atBound
	}
	if !returned && !raceEnabled {
		t.Errorf("a %d-byte buffer never came back from the pool", MaxPooledBytes)
	}
}
