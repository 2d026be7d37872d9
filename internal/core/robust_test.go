package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/paperdoc"
	"repro/internal/tagtree"
)

// metricsText renders the registry for substring assertions.
func metricsText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestDiscoverContextCanceled: a pre-canceled context fails the call with
// context.Canceled and counts the document under outcome=canceled.
func TestDiscoverContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.NewRegistry()
	_, err := DiscoverContext(ctx, paperdoc.Figure2, Options{Metrics: reg})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := metricsText(t, reg); !strings.Contains(got, `boundary_documents_total{outcome="canceled"} 1`) {
		t.Errorf("canceled outcome not counted:\n%s", got)
	}
}

// TestHeuristicPanicIsolated: an injected panic in one heuristic degrades
// the result instead of crashing — the survivors still pick <hr> on the
// paper's Figure 2 document, the failure is named, the panic counter ticks,
// and the document lands under outcome=degraded.
func TestHeuristicPanicIsolated(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("core/heuristic/HT", faultinject.Fault{Panic: "injected HT failure"})
	reg := obs.NewRegistry()
	res, err := Discover(paperdoc.Figure2, Options{
		Ontology: ontology.Builtin("obituary"),
		Metrics:  reg,
		Faults:   faults,
	})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if !res.Degraded {
		t.Error("result not marked degraded")
	}
	if len(res.FailedHeuristics) != 1 || res.FailedHeuristics[0] != "HT" {
		t.Errorf("FailedHeuristics = %v, want [HT]", res.FailedHeuristics)
	}
	if _, ok := res.Rankings["HT"]; ok {
		t.Error("panicked heuristic left a ranking")
	}
	if res.Separator != "hr" {
		t.Errorf("separator = %s, want hr (survivors should still agree)", res.Separator)
	}
	got := metricsText(t, reg)
	for _, want := range []string{
		`boundary_heuristic_panics_total{heuristic="HT"} 1`,
		`boundary_documents_total{outcome="degraded"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics missing %q:\n%s", want, got)
		}
	}
}

// TestAllHeuristicsPanicStillAnswers: even with every heuristic down, the
// compound combination over zero rankings still returns a (low-confidence)
// answer rather than failing — missing evidence, not an error.
func TestAllHeuristicsPanicStillAnswers(t *testing.T) {
	faults := faultinject.New()
	for _, name := range []string{"OM", "RP", "SD", "IT", "HT"} {
		faults.Inject("core/heuristic/"+name, faultinject.Fault{Panic: "down"})
	}
	res, err := Discover(paperdoc.Figure2, Options{
		Ontology: ontology.Builtin("obituary"),
		Faults:   faults,
	})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if !res.Degraded || len(res.FailedHeuristics) != 5 {
		t.Errorf("Degraded=%v FailedHeuristics=%v, want all five down", res.Degraded, res.FailedHeuristics)
	}
	if res.Separator == "" {
		t.Error("no separator chosen")
	}
}

// TestFaultErrorAtParse: an injected error at the core/parse hook fails the
// call with that error.
func TestFaultErrorAtParse(t *testing.T) {
	boom := errors.New("injected parse failure")
	faults := faultinject.New()
	faults.Inject("core/parse", faultinject.Fault{Err: boom})
	if _, err := Discover(paperdoc.Figure2, Options{Faults: faults}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want injected error", err)
	}
}

// TestFaultAtRecognizerChunkFailsDocument: an error or panic armed on the
// "recognizer/chunk" hook during an armed discovery — the count-only scan
// of the record-identifying fields — fails the document with an error
// instead of crashing, and counts it under outcome=error.
func TestFaultAtRecognizerChunkFailsDocument(t *testing.T) {
	boom := errors.New("injected chunk failure")
	for _, fault := range []faultinject.Fault{{Err: boom}, {Panic: "chunk down"}} {
		faults := faultinject.New()
		faults.Inject("recognizer/chunk", fault)
		reg := obs.NewRegistry()
		res, err := Discover(paperdoc.Figure2, Options{
			Ontology: ontology.Builtin("obituary"),
			Metrics:  reg,
			Faults:   faults,
		})
		switch {
		case res != nil:
			t.Errorf("%+v: got a result, want a failed document", fault)
		case fault.Panic != "" && (err == nil || !strings.Contains(err.Error(), "chunk scan panicked")):
			t.Errorf("panic: err = %v, want a contained panic", err)
		case fault.Panic == "" && !errors.Is(err, boom):
			t.Errorf("err = %v, want the injected error", err)
		}
		if faults.Fired("recognizer/chunk") == 0 {
			t.Errorf("%+v: hook never fired", fault)
		}
		if got := metricsText(t, reg); !strings.Contains(got, `boundary_documents_total{outcome="error"} 1`) {
			t.Errorf("%+v: error outcome not counted:\n%s", fault, got)
		}
	}
}

// TestDiscoverCanceledMidRecognition: canceling while an armed discovery's
// recognizer is scanning returns ctx.Err() and counts the document under
// outcome=canceled.
func TestDiscoverCanceledMidRecognition(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	faults := faultinject.New()
	faults.Inject("recognizer/chunk", faultinject.Fault{Delay: time.Minute, Times: 1})
	go func() {
		for faults.Fired("recognizer/chunk") == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	reg := obs.NewRegistry()
	_, err := DiscoverContext(ctx, paperdoc.Figure2, Options{
		Ontology: ontology.Builtin("obituary"),
		Metrics:  reg,
		Faults:   faults,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := metricsText(t, reg); !strings.Contains(got, `boundary_documents_total{outcome="canceled"} 1`) {
		t.Errorf("canceled outcome not counted:\n%s", got)
	}
}

// TestDiscoverLimits: exceeded resource limits surface as the tagtree
// sentinels and count under outcome=limit.
func TestDiscoverLimits(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := DiscoverContext(context.Background(), paperdoc.Figure2, Options{
		Metrics: reg,
		Limits:  tagtree.Limits{MaxNodes: 3},
	})
	if !errors.Is(err, tagtree.ErrTooManyNodes) {
		t.Fatalf("err = %v, want ErrTooManyNodes", err)
	}
	if got := metricsText(t, reg); !strings.Contains(got, `boundary_documents_total{outcome="limit"} 1`) {
		t.Errorf("limit outcome not counted:\n%s", got)
	}
}

// TestDiscoverXMLContextCanceled: the XML entry point honors ctx too.
func TestDiscoverXMLContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	doc := "<root>" + strings.Repeat("<item>x</item>", 10) + "</root>"
	if _, err := DiscoverXMLContext(ctx, doc, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestDegradedHeuristicKeepsFigure2Certainties: with no faults armed the
// compound certainties of the paper's worked example are untouched by the
// robustness plumbing (the acceptance pin; repro_test.go checks the exact
// values end to end).
func TestDegradedHeuristicKeepsFigure2Certainties(t *testing.T) {
	res, err := Discover(paperdoc.Figure2, Options{Ontology: ontology.Builtin("obituary")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.FailedHeuristics) != 0 {
		t.Errorf("clean run marked degraded: %v %v", res.Degraded, res.FailedHeuristics)
	}
	if res.Separator != "hr" {
		t.Errorf("separator = %s, want hr", res.Separator)
	}
}
