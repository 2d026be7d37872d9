package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/paperdoc"
)

// TestDiscoverTraced: a Discover call with a Trace attached records one span
// per pipeline stage in execution order, with the winning separator on the
// combine span.
func TestDiscoverTraced(t *testing.T) {
	tr := obs.NewTrace()
	res, err := Discover(paperdoc.Figure2, Options{
		Ontology: ontology.Builtin("obituary"),
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "hr" {
		t.Fatalf("separator = %s", res.Separator)
	}

	var names []string
	for _, s := range tr.Spans() {
		names = append(names, s.Name)
	}
	want := []string{"parse", "fanout", "candidates", "recognize",
		"heuristic/OM", "heuristic/RP", "heuristic/SD", "heuristic/IT", "heuristic/HT",
		"combine"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("spans = %v, want %v", names, want)
	}
	table := tr.Table()
	if !strings.Contains(table, "separator=hr") {
		t.Errorf("combine span missing separator attr:\n%s", table)
	}
}

// TestDiscoverMetrics: the registry accumulates document, stage and
// heuristic series across calls, including OM's decline without an ontology.
func TestDiscoverMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	// No ontology: OM must decline and be counted as such.
	if _, err := Discover(paperdoc.Figure2, Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	// A tagless document: counted under outcome=no_candidates.
	if _, err := Discover("plain text only", Options{Metrics: reg}); err == nil {
		t.Fatal("tagless document should fail")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		`boundary_documents_total{outcome="ok"} 1`,
		`boundary_documents_total{outcome="no_candidates"} 1`,
		`boundary_heuristic_runs_total{heuristic="OM"} 1`,
		`boundary_heuristic_declines_total{heuristic="OM"} 1`,
		`boundary_heuristic_runs_total{heuristic="HT"} 1`,
		`boundary_stage_duration_seconds_count{stage="parse"} 2`,
		`boundary_stage_duration_seconds_count{stage="combine"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, `boundary_heuristic_declines_total{heuristic="HT"}`) {
		t.Error("HT should not have declined")
	}
}

// TestDiscoverConcurrentObserved exercises concurrent discovery under the
// race detector: many Discover calls run at once, all feeding one shared
// metrics registry while each carries its own trace. Span order must stay
// deterministic per call even though the calls interleave.
func TestDiscoverConcurrentObserved(t *testing.T) {
	reg := obs.NewRegistry()
	ont := ontology.Builtin("obituary")
	const calls = 8
	var wg sync.WaitGroup
	traces := make([]*obs.Trace, calls)
	for i := 0; i < calls; i++ {
		traces[i] = obs.NewTrace()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Discover(paperdoc.Figure2, Options{
				Ontology: ont,
				Trace:    traces[i],
				Metrics:  reg,
			})
			if err != nil || res.Separator != "hr" {
				t.Errorf("res = %v, err = %v", res, err)
			}
		}()
	}
	wg.Wait()

	want := []string{"parse", "fanout", "candidates", "recognize",
		"heuristic/OM", "heuristic/RP", "heuristic/SD", "heuristic/IT", "heuristic/HT",
		"combine"}
	for i, tr := range traces {
		var names []string
		for _, s := range tr.Spans() {
			names = append(names, s.Name)
		}
		if strings.Join(names, " ") != strings.Join(want, " ") {
			t.Errorf("call %d spans = %v, want %v", i, names, want)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`boundary_documents_total{outcome="ok"} %d`, calls); !strings.Contains(b.String(), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestDiscoverUnobserved: with no sinks attached the result is identical —
// observability must never perturb the pipeline's answer.
func TestDiscoverUnobserved(t *testing.T) {
	plain, err := Discover(paperdoc.Figure2, Options{Ontology: ontology.Builtin("obituary")})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Discover(paperdoc.Figure2, Options{
		Ontology: ontology.Builtin("obituary"),
		Trace:    obs.NewTrace(),
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Separator != traced.Separator || len(plain.Scores) != len(traced.Scores) {
		t.Errorf("observed run changed the answer: %+v vs %+v", plain.Scores, traced.Scores)
	}
}
