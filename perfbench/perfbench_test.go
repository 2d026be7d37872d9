package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// set-up samples re-execute it.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runJSON runs the benchmark in-process and decodes its last line.
func runJSON(t *testing.T, args ...string) *result {
	t.Helper()
	var out, errb bytes.Buffer
	dir := t.TempDir()
	if code := run(append(args, "--trace-out", dir), &out, &errb); code != 0 {
		t.Fatalf("perfbench %v exited %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return &res
}

func names[T any](xs []T, name func(T) string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, name(x))
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := ndjson(bulkPass(7), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ndjson(bulkPass(7), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("bulk inputs differ between two generations from seed 7")
	}
	s1, s2 := newServePlan(7), newServePlan(7)
	for i := range s1.variants {
		if s1.variants[i].html != s2.variants[i].html {
			t.Fatalf("serve variant %d differs between two generations from seed 7", i)
		}
	}
	if fmt.Sprint(s1.order) != fmt.Sprint(s2.order) {
		t.Error("serve request order differs between two generations from seed 7")
	}
}

// siteMix counts pages per domain, site and kind.
func siteMix(pages []*page) map[string]int {
	m := make(map[string]int)
	for _, p := range pages {
		m[fmt.Sprintf("%s/%s/long=%v", p.domain(), p.doc.Site.Name, p.long)]++
	}
	return m
}

func TestSecondSeedSameSiteMixOtherPages(t *testing.T) {
	p1, p2 := bulkPass(7), bulkPass(8)
	if fmt.Sprint(siteMix(p1)) != fmt.Sprint(siteMix(p2)) {
		t.Error("seeds 7 and 8 give bulk passes with different site mixes")
	}
	if n, want := len(siteMix(p1)), 2*len(benchSites()); n != want {
		t.Errorf("a bulk pass covers %d site/kind pairs, want %d", n, want)
	}
	seen := make(map[string]bool)
	for _, p := range p1 {
		seen[p.html] = true
	}
	same := 0
	for _, p := range p2 {
		if seen[p.html] {
			same++
		}
	}
	if same > len(p2)/10 {
		t.Errorf("%d of %d pages of seed 8 also appear in seed 7", same, len(p2))
	}

	s1, s2 := newServePlan(7), newServePlan(8)
	if fmt.Sprint(siteMix(s1.base)) != fmt.Sprint(siteMix(s2.base)) {
		t.Error("seeds 7 and 8 give serve plans with different site mixes")
	}
	if s1.variants[0].html == s2.variants[0].html {
		t.Error("seeds 7 and 8 give the same first serve variant")
	}
}

// TestRunsReportTheirMetrics runs every workload briefly on a second seed,
// untraced and traced: each run must pass its ground-truth check, print
// exactly the metrics BENCHMARK.json lists, and the traced run must show
// each workload stressing the layers it exists for.
func TestRunsReportTheirMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	e2e := names(spec.EndToEnd, func(m struct {
		Name, Unit string
		Bound      float64
	}) string {
		return m.Name + " " + m.Unit
	})
	layers := names(spec.PerLayer, func(m struct{ Name, Unit string }) string { return m.Name + " " + m.Unit })
	withUnits := func(ms map[string]metric) []string {
		var out []string
		for _, k := range keys(ms) {
			out = append(out, k+" "+ms[k].Unit)
		}
		return out
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runJSON(t, "--workload", w.Name, "--seed", "8", "--seconds", "1", "--trace", "0")
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("untraced run: correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			if got := withUnits(res.Metrics); fmt.Sprint(got) != fmt.Sprint(e2e) {
				t.Errorf("untraced metrics %v, BENCHMARK.json lists %v", got, e2e)
			}
			for k, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", k, m.Value)
				}
			}

			tr := runJSON(t, "--workload", w.Name, "--seed", "8", "--seconds", "2", "--trace", "1")
			if !tr.Correct {
				t.Error("traced run failed its ground-truth check")
			}
			if got := withUnits(tr.Metrics); fmt.Sprint(got) != fmt.Sprint(layers) {
				t.Errorf("traced metrics %v, BENCHMARK.json lists %v", got, layers)
			}
			share := func(name string) float64 { return tr.Metrics[name].Value }
			switch w.Name {
			case "bulk-paper":
				if s := share("ledger.recognize_share"); s < 0.5 {
					t.Errorf("recognizer carries %.2f of bulk-paper's discovery time, want most", s)
				}
			case "bulk-structural":
				if s := share("ledger.recognize_share"); s != 0 {
					t.Errorf("recognizer carries %.2f of bulk-structural's discovery time, want none", s)
				}
			case "serve-recrawl":
				if s := share("ledger.parse_heuristic_share"); s > 0.05 {
					t.Errorf("parsing and heuristics carry %.3f of serve-recrawl's handler time, want nearly none", s)
				}
			}
		})
	}
}

// TestSetupRepeats measures setup_s twice on every workload, as two runs
// would, and checks the medians agree within the metric's bound.
func TestSetupRepeats(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("starts many processes")
	}
	spec := loadSpec(t)
	bound := -1.0
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			bound = m.Bound
		}
	}
	if bound < 0 {
		t.Fatal("BENCHMARK.json has no setup_s metric")
	}
	for _, w := range spec.Workloads {
		cfg := config{workload: w.Name, seed: 3, seconds: 1}
		var medians []float64
		for set := 0; set < 2; set++ {
			xs, err := setUpSamples(cfg, setupSamples)
			if err != nil {
				t.Fatal(err)
			}
			medians = append(medians, median(xs))
		}
		if d := medians[1]/medians[0] - 1; d > bound || d < -bound {
			t.Errorf("%s: setup_s medians %.4f and %.4f differ by %.1f%%, bound %.0f%%",
				w.Name, medians[0], medians[1], 100*d, 100*bound)
		}
	}
}

// TestLeftOutSitesAreMissed checks that the sites the workloads leave out
// are ones discovery still answers wrongly: one known page of each with
// an ontology, and the first pages of GoCincinnati.com and KSU without.
func TestLeftOutSitesAreMissed(t *testing.T) {
	known := map[siteKey]int{
		{corpus.Obituaries, "GoCincinnati.com"}: 1020133,
		{corpus.JobAds, "GoCincinnati.com"}:     975298,
		{corpus.Courses, "KSU"}:                 979466,
		{corpus.Courses, "UT - Austin"}:         342812,
	}
	discover := func(d *corpus.Document, armed bool) string {
		opts := core.Options{}
		if armed {
			opts.Ontology = ontology.Builtin(string(d.Site.Domain))
		}
		res, err := core.Discover(d.HTML, opts)
		if err != nil {
			t.Fatalf("%s/%s page %d: %v", d.Site.Domain, d.Site.Name, d.Index, err)
		}
		return res.Separator
	}
	for _, s := range allSites() {
		k := siteKey{s.Domain, s.Name}
		if !missed[k] {
			continue
		}
		if i, ok := known[k]; ok {
			if d := s.Generate(i); d.IsCorrect(discover(d, true)) {
				t.Errorf("%s/%s page %d is answered right with an ontology", s.Domain, s.Name, i)
			}
		}
		if s.Name == "UT - Austin" {
			continue
		}
		for i := 0; i < 5; i++ {
			if d := s.Generate(i); d.IsCorrect(discover(d, false)) {
				t.Errorf("%s/%s page %d is answered right without an ontology", s.Domain, s.Name, i)
			}
		}
	}
}

// TestLongListingsCrossChunkThreshold checks that every long listing gives
// the recognizer more than 16 KiB of text, the size at which it fans
// chunks across its worker pool.
func TestLongListingsCrossChunkThreshold(t *testing.T) {
	for _, p := range bulkPass(7) {
		if !p.long {
			continue
		}
		tree := tagtree.Parse(p.html)
		text := 0
		for _, ev := range tree.SubtreeEvents(tree.HighestFanOut()) {
			if ev.Kind == tagtree.EventText {
				text += len(ev.Text)
			}
		}
		if text <= 16<<10 {
			t.Errorf("long listing of %s/%s holds %d bytes of text", p.domain(), p.doc.Site.Name, text)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	r.add(1, 1, 0, "root", 0, 100)
	r.add(1, 2, 1, "child", 10, 40)
	r.add(1, 3, 1, "child", 30, 60)  // overlaps the first child
	r.add(1, 4, 1, "child", 90, 120) // runs past the root's end
	self, count := r.selfTimes()
	if self["root"] != 40 || count["root"] != 1 {
		t.Errorf("root self time %v over %d spans, want 40 over 1", self["root"], count["root"])
	}
	if self["child"] != 30+30+30 || count["child"] != 3 {
		t.Errorf("child self time %v over %d spans, want 90 over 3", self["child"], count["child"])
	}
}

func TestWindowsCutAtPeriods(t *testing.T) {
	start := time.Unix(0, 0)
	ph := &phase{start: start, period: 500}
	for i := 0; i < 2600; i++ {
		ph.samples = append(ph.samples, sample{
			done:  start.Add(time.Duration(i+1) * time.Millisecond),
			lat:   time.Duration(i%100+1) * time.Microsecond,
			bytes: 1000,
		})
	}
	// 500 operations take half a second; the tail of 100 joins the last
	// window.
	ws := ph.windows(1)
	if len(ws) != 5 || ws[0].n != 500 || ws[4].n != 600 {
		t.Fatalf("windows %+v, want four of 500 and one of 600", ws)
	}
	ws = ph.windows(minTailOps)
	if len(ws) != 2 || ws[0].n != 1000 || ws[1].n != 1600 {
		t.Fatalf("tail windows %+v, want sizes 1000 and 1600", ws)
	}
	if ws[0].mbs != 1 || ws[0].p50 != 50*time.Microsecond || ws[0].p99 != 99*time.Microsecond {
		t.Errorf("first tail window %+v, want 1 MB/s, p50 50µs, p99 99µs", ws[0])
	}
}

func TestSeparatorOf(t *testing.T) {
	for body, want := range map[string]string{
		"{\n  \"separator\": \"hr\",\n  \"top_tags\": [\"hr\"]}": "hr",
		`{"separator":"tr"}`: "tr",
		`{"error":"bad"}`:    "",
	} {
		if got, _ := separatorOf([]byte(body)); got != want {
			t.Errorf("separatorOf(%q) = %q, want %q", body, got, want)
		}
	}
}
