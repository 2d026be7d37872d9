package repro

// Allocation gates for the byte-level hot path (docs/PERFORMANCE.md). Each
// test pins an AllocsPerRun ceiling on a fixed corpus document, so a change
// that quietly reintroduces per-request allocation — a string conversion in
// the tokenizer, a forgotten pooled buffer, an escaping scratch slice —
// fails here with the measured count instead of surfacing months later as a
// throughput regression. Ceilings are measured numbers plus ~20% headroom,
// not aspirations: lower them when the measured count drops.
//
// The structural layers have hard zero gates (warm target 0): the arena
// parse itself (tagtree.TestParseArenaWarmZeroAllocs) and the template
// fingerprint scan (TestFingerprintDocAllocs below). Full discovery
// legitimately allocates its per-request answer — candidates, rankings,
// scores, the Result — and those ceilings bound that spend; the heuristic
// layer may allocate nothing else (TestHeuristicLayerAllocs).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/heuristic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// allocDoc returns the fixed document the ceilings are calibrated against.
func allocDoc(t *testing.T) *corpus.Document {
	t.Helper()
	docs := corpus.TestDocuments()
	if len(docs) == 0 {
		t.Fatal("empty test corpus")
	}
	return docs[0]
}

// skipUnderRace skips allocation/throughput gates when the race detector is
// on: its instrumentation allocates shadow state of its own and slows the
// hot path several-fold, so the measured numbers gate the detector, not the
// code. The arena-safety tests below do NOT skip — -race is their point.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation/throughput gates are meaningless under -race instrumentation")
	}
}

func TestDiscoverAllocs(t *testing.T) {
	skipUnderRace(t)
	d := allocDoc(t)
	doc := []byte(d.HTML)
	arena := tagtree.AcquireArena()
	defer arena.Release()

	t.Run("NoOntology", func(t *testing.T) {
		// Parse + heuristics + answer assembly; no recognizer. Measured 13
		// on the seed corpus document: the context, the candidates, the five
		// rankings, the Result with its Rankings map, Scores and TopTags.
		const ceiling = 16
		opts := core.Options{Arena: arena}
		got := testing.AllocsPerRun(50, func() {
			if _, err := core.DiscoverBytes(doc, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling {
			t.Errorf("DiscoverBytes (no ontology) allocates %.0f/run, ceiling %d", got, ceiling)
		}
	})

	t.Run("WithOntology", func(t *testing.T) {
		// Adds the recognizer's count-only scan of the record-identifying
		// fields, which runs on pooled scratch. Measured 13 on the seed
		// corpus document.
		const ceiling = 16
		opts := core.Options{Ontology: BuiltinOntology(string(d.Site.Domain)), Arena: arena}
		got := testing.AllocsPerRun(20, func() {
			if _, err := core.DiscoverBytes(doc, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling {
			t.Errorf("DiscoverBytes (ontology) allocates %.0f/run, ceiling %d", got, ceiling)
		}
	})
}

// TestHeuristicLayerAllocs pins the heuristic layer on a pooled arena:
// NewContext and the five Rank calls allocate only what they return — the
// context, its candidates, and one slice per ranking. The statistics pass
// runs in the arena's scratch and ranking sorts in place.
func TestHeuristicLayerAllocs(t *testing.T) {
	skipUnderRace(t)
	doc := allocDoc(t).HTML
	arena := tagtree.AcquireArena()
	defer arena.Release()
	tree, err := tagtree.ParseArenaContext(context.Background(), doc, tagtree.Limits{}, arena, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := heuristic.All()
	var answered int
	got := testing.AllocsPerRun(50, func() {
		ctx := heuristic.NewContext(tree, tagtree.DefaultCandidateThreshold, nil)
		answered = 0
		for _, h := range hs {
			if _, ok := h.Rank(ctx); ok {
				answered++
			}
		}
	})
	t.Logf("%.0f allocations, %d rankings", got, answered)
	if ceiling := 2 + answered; got > float64(ceiling) {
		t.Errorf("NewContext and five Rank calls allocate %.0f/run, want at most %d (context, candidates, %d rankings)",
			got, ceiling, answered)
	}
}

// TestDiscoverRegistryAllocs pins the cost of observability on the
// unarmed path: once every series exists, a metrics registry adds at most
// 5 allocations to a discovery. Metric lookups allocate nothing, and the
// trace attributes are built only when a trace is attached.
func TestDiscoverRegistryAllocs(t *testing.T) {
	skipUnderRace(t)
	const ceiling = 5
	doc := []byte(allocDoc(t).HTML)
	arena := tagtree.AcquireArena()
	defer arena.Release()
	measure := func(opts core.Options) float64 {
		if _, err := core.DiscoverBytes(doc, opts); err != nil { // warm
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := core.DiscoverBytes(doc, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := measure(core.Options{Arena: arena})
	observed := measure(core.Options{Arena: arena, Metrics: obs.NewRegistry()})
	t.Logf("%.0f allocations bare, %.0f with a warm registry", bare, observed)
	if observed-bare > ceiling {
		t.Errorf("a warm registry adds %.0f allocations per discovery (%.0f → %.0f), ceiling %d",
			observed-bare, bare, observed, ceiling)
	}
}

func TestSplitAllocs(t *testing.T) {
	skipUnderRace(t)
	d := allocDoc(t)
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, err := core.DiscoverBytes([]byte(d.HTML), core.Options{Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	// One Record (with its cleaned text) per boundary, plus the merge-walk's
	// collapsed text chunks. Measured 92 on the seed corpus document.
	const ceiling = 120
	got := testing.AllocsPerRun(50, func() {
		core.Split(d.HTML, res)
	})
	if got > ceiling {
		t.Errorf("Split allocates %.0f/run, ceiling %d", got, ceiling)
	}
}

func TestFingerprintDocAllocs(t *testing.T) {
	skipUnderRace(t)
	d := allocDoc(t)
	template.FingerprintDoc(d.HTML) // warm the scanner pool
	// The tag-only fingerprint scan is fully pooled: zero allocations warm,
	// exactly — this is what keeps the template fast path ~50× cheaper than
	// full discovery.
	if got := testing.AllocsPerRun(50, func() {
		template.FingerprintDoc(d.HTML)
	}); got != 0 {
		t.Errorf("FingerprintDoc allocates %.0f/run warm, want 0", got)
	}
}

// TestEngineAllocsPerDocument bounds the bytes one document costs through
// the bulk engine — NDJSON decoding, discovery on the worker's arena, the
// outcome and its encoding — on the allocation document without an
// ontology. The engine hands each document's buffer back to the decoder
// once its outcome is written, so the document itself is not copied per
// line and the whole per-document spend stays well under its size.
func TestEngineAllocsPerDocument(t *testing.T) {
	skipUnderRace(t)
	d := allocDoc(t)
	line, err := json.Marshal(map[string]string{"html": d.HTML})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	const docs = 400
	input := bytes.Repeat(line, docs)
	eng := pipeline.New(pipeline.Config{Workers: 2})
	run := func(input []byte) {
		src := pipeline.NewNDJSONSource(bytes.NewReader(input), 0)
		stats, err := eng.Run(context.Background(), src, pipeline.NewWriterSink(io.Discard, nil), nil)
		if err != nil || stats.OK != bytes.Count(input, []byte("\n")) {
			t.Fatalf("Run = %+v, %v", stats, err)
		}
	}
	run(input[:32*len(line)]) // warm the arenas, the pools and the engine's caches
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(input)
	runtime.ReadMemStats(&after)
	perDoc := float64(after.TotalAlloc-before.TotalAlloc) / docs
	// Measured 3.3-3.8 KB on the 6.7 KB seed corpus document (10.2 KB while
	// every line was decoded into a fresh string): the task, discovery's
	// answer, the outcome and the run's own setup, amortized. The spread is
	// the buffer pool's occasional miss when a goroutine changes processor.
	const ceiling = 4500
	if perDoc > ceiling {
		t.Errorf("Engine.Run allocates %.0f bytes per %d-byte document, ceiling %d", perDoc, len(d.HTML), ceiling)
	}
}

// TestArenaReleaseDoesNotCorruptWireResults is the consumer-side half of the
// arena safety contract: everything a caller keeps from a discovery must be
// deep-copied out before the arena is released (see docs/PERFORMANCE.md).
// The wire snapshot taken while the arena was live must be byte-identical to
// the nil-arena answer even after the arena has been released,
// re-acquired, and dirtied by parsing a different document.
func TestArenaReleaseDoesNotCorruptWireResults(t *testing.T) {
	docs := corpus.TestDocuments()
	if len(docs) < 2 {
		t.Fatal("need two corpus documents")
	}
	d, other := docs[0], docs[1]
	opts := core.Options{Ontology: BuiltinOntology(string(d.Site.Domain))}

	arena := tagtree.AcquireArena()
	aopts := opts
	aopts.Arena = arena
	res, err := core.DiscoverBytes([]byte(d.HTML), aopts)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := fromCore(res) // deep copy, taken while the arena is live
	arena.Release()

	// Dirty the pool: the released arena (or one recycled from it) parses an
	// unrelated document, overwriting any scratch the snapshot could have
	// wrongly aliased.
	arena2 := tagtree.AcquireArena()
	defer arena2.Release()
	dirty := core.Options{Ontology: BuiltinOntology(string(other.Site.Domain)), Arena: arena2}
	if _, err := core.DiscoverBytes([]byte(other.HTML), dirty); err != nil {
		t.Fatal(err)
	}

	ref, err := core.Discover(d.HTML, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := fromCore(ref); !reflect.DeepEqual(snapshot, want) {
		t.Errorf("wire snapshot corrupted after arena release:\n got %+v\nwant %+v", snapshot, want)
	}
}
