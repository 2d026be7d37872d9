package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.", "kind", "a")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	if r.Counter("jobs_total", "Jobs.", "kind", "a") != c {
		t.Error("same name+labels did not return the same counter")
	}
	if r.Counter("jobs_total", "Jobs.", "kind", "b") == c {
		t.Error("different labels returned the same counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Queue depth.")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 55.65 {
		t.Errorf("sum = %v, want 55.65", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`latency_bucket{le="0.1"} 2`, // 0.05 and 0.1 (le is inclusive)
		`latency_bucket{le="1"} 3`,
		`latency_bucket{le="10"} 4`,
		`latency_bucket{le="+Inf"} 5`,
		`latency_sum 55.65`,
		`latency_count 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestPrometheusGolden locks the full exposition format: HELP/TYPE comments,
// sorted families and series, escaped label values.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "B counter.", "route", `with"quote`).Add(2)
	r.Counter("b_total", "B counter.", "route", "plain").Inc()
	r.Gauge("a_gauge", "A gauge.").Set(1.5)
	h := r.Histogram("c_seconds", "C histogram.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)

	want := `# HELP a_gauge A gauge.
# TYPE a_gauge gauge
a_gauge 1.5
# HELP b_total B counter.
# TYPE b_total counter
b_total{route="plain"} 1
b_total{route="with\"quote"} 2
# HELP c_seconds C histogram.
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 1
c_seconds_bucket{le="1"} 2
c_seconds_bucket{le="+Inf"} 2
c_seconds_sum 1
c_seconds_count 2
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestConcurrentUpdates hammers one counter, gauge and histogram from many
// goroutines; run with -race this is the registry's thread-safety proof.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines, n = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Registration races too: look the metrics up every time.
				r.Counter("ops_total", "Ops.").Inc()
				r.Gauge("level", "Level.").Add(1)
				r.Histogram("dur", "Durations.", []float64{0.5}).Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total", "Ops.").Value(); got != goroutines*n {
		t.Errorf("counter = %v, want %d", got, goroutines*n)
	}
	if got := r.Gauge("level", "Level.").Value(); got != goroutines*n {
		t.Errorf("gauge = %v, want %d", got, goroutines*n)
	}
	if got := r.Histogram("dur", "Durations.", []float64{0.5}).Count(); got != goroutines*n {
		t.Errorf("histogram count = %v, want %d", got, goroutines*n)
	}
}

// TestNilRegistry checks the no-op contract instrumented code relies on.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", nil).Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
	if v := r.Counter("x", "").Value(); v != 0 {
		t.Errorf("nil counter value = %v", v)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestLookupExistingSeries pins the warm lookup path instrumented code takes
// on every document: an existing series is found without allocating, under
// any label order, and every label order resolves to the one series.
func TestLookupExistingSeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("calls_total", "Calls.", "route", "a", "code", "200")
	if r.Counter("calls_total", "Calls.", "code", "200", "route", "a") != c {
		t.Fatal("reordered labels resolved to a different series")
	}
	h := r.Histogram("lat_seconds", "Latency.", StageBuckets, "stage", "parse")
	route := "a"
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("calls_total", "Calls.", "route", route, "code", "200").Inc()
		r.Counter("calls_total", "Calls.", "code", "200", "route", route).Inc()
		r.Histogram("lat_seconds", "Latency.", StageBuckets, "stage", "parse").Observe(0.001)
	}); n != 0 {
		t.Errorf("looking up existing series allocates %v per run, want 0", n)
	}
	if got := c.Value(); got != 202 {
		t.Errorf("counter = %v, want 202", got)
	}
	if got := h.Count(); got != 101 {
		t.Errorf("histogram count = %v, want 101", got)
	}
}

// TestSeriesCreationInterleavesWithLookups forces first-time series creation
// to overlap lookups of existing series and scrapes: every increment lands
// on the one series its name and labels denote, whichever goroutine created
// it, and the final exposition lists each series with its exact count.
func TestSeriesCreationInterleavesWithLookups(t *testing.T) {
	const workers, perWorker, shared = 4, 512, 8
	r := NewRegistry()
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		var err error
		for done := false; !done; {
			select {
			case <-stop:
				done = true
			default:
			}
			if werr := r.WritePrometheus(&strings.Builder{}); werr != nil && err == nil {
				err = werr
			}
		}
		scraped <- err
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A series of its own, created here, and a series every
				// worker creates and bumps, with labels in either order.
				r.Counter("own_total", "", "worker", fmt.Sprint(w), "i", fmt.Sprint(i)).Inc()
				k := fmt.Sprint(i % shared)
				if i%2 == 0 {
					r.Counter("shared_total", "", "k", k, "side", "x").Inc()
				} else {
					r.Counter("shared_total", "", "side", "x", "k", k).Inc()
				}
				r.Histogram("shared_seconds", "", nil, "k", k).Observe(0.01)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			want[fmt.Sprintf(`own_total{i="%d",worker="%d"}`, i, w)] = "1"
		}
	}
	for k := 0; k < shared; k++ {
		n := fmt.Sprint(workers * perWorker / shared)
		want[fmt.Sprintf(`shared_total{k="%d",side="x"}`, k)] = n
		want[fmt.Sprintf(`shared_seconds_count{k="%d"}`, k)] = n
	}
	got := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if series, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			got[series] = v
		}
	}
	for series, v := range want {
		if got[series] != v {
			t.Errorf("%s = %q, want %s", series, got[series], v)
		}
	}
}
