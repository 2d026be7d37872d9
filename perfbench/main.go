// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the program's public entry points — the bulk
// engine behind cmd/bulk and /v1/discover/stream, or the HTTP service as
// cmd/serve builds it — checks every answer against the corpus
// generator's ground truth, and prints its metrics, the last line being
// one JSON object. With --trace 1 it instead runs the workload twice, the
// second time timing the calls it makes into each layer, and replays the
// workload's documents layer by layer to report per-layer metrics.
//
//	perfbench --workload bulk-paper --seed 1 --seconds 10 --trace 0
//
// See README.md for the metrics, the workloads and how to run them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many fresh processes measure set-up; setup_s is
// their median.
const setupSamples = 7

// probeEnv, when set, makes the process measure one set-up and exit: the
// fresh-process sample behind setup_s.
const probeEnv = "PERFBENCH_SETUP_PROBE"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: bulk-paper, bulk-structural or serve-recrawl")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks the pages and the request order")
	fs.IntVar(&cfg.seconds, "seconds", 10, "seconds the run measures for")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", filepath.Join(".bench_build", "traces"),
		"directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if os.Getenv(probeEnv) != "" {
		d, err := setUpOnce(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up probe:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%.9f\n", d.Seconds())
		return 0
	}

	var res *result
	var err error
	if cfg.trace {
		res, err = traced(cfg, stdout)
	} else {
		res, err = untraced(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: answers failed the ground-truth check")
		return 1
	}
	return 0
}

// runner sets up and measures one workload.
type runner interface {
	setUp() (time.Duration, error)
	measure(d time.Duration, rec *recorder) (*phase, error)
	close() error
}

func (b *bulkRunner) close() error { return nil }

// newRunner generates the workload's inputs from its seed. BENCHMARK.json
// records why each workload exists.
func newRunner(cfg config) (runner, error) {
	switch cfg.workload {
	case "bulk-paper":
		return newBulkRunner(cfg.seed, true)
	case "bulk-structural":
		return newBulkRunner(cfg.seed, false)
	case "serve-recrawl":
		return newServeRunner(cfg.seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
}

// setUpOnce generates the workload's inputs and measures one set-up.
func setUpOnce(cfg config) (time.Duration, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return 0, err
	}
	d, err := r.setUp()
	return d, errors.Join(err, r.close())
}

// setUpSamples measures set-up in n fresh processes, one after another, so
// each pays the lazy initialisation a new process pays.
func setUpSamples(cfg config, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Env = append(os.Environ(), probeEnv+"=1")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// verdict fills the check fields of res from the phases that were checked:
// the run is correct when every answer passed the ground-truth check.
func verdict(res *result, phases ...*phase) {
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
}

// untraced measures the end-to-end metrics.
func untraced(cfg config, stdout io.Writer) (*result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	setups, err := setUpSamples(cfg, setupSamples)
	if err != nil {
		return nil, err
	}
	if _, err := r.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph, err := r.measure(time.Duration(cfg.seconds)*time.Second, nil)
	if err != nil {
		return nil, err
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	n := ph.completed()
	sum := ph.summary()
	res := &result{Metrics: map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_mb_s":  {sum.mbs, "MB/s"},
		"latency_p50_ms":   {sum.p50ms, "ms"},
		"latency_p99_ms":   {sum.p99ms, "ms"},
		"alloc_kb_per_doc": {float64(ph.allocBytes) / 1024 / float64(n), "KB"},
	}}
	verdict(res, ph)
	fmt.Fprintf(stdout, "workload %s, seed %d: %d of %d operations failed in %.2f s\n",
		cfg.workload, cfg.seed, res.Failed, res.Attempted, ph.elapsed.Seconds())
	windows := fmt.Sprintf("median of %d windows, %d samples", sum.windows, n)
	notes := map[string]string{
		"setup_s":         fmt.Sprintf("median of %d fresh processes: %s", len(setups), fmtList(setups)),
		"throughput_mb_s": windows,
		"latency_p50_ms":  windows,
		"latency_p99_ms": fmt.Sprintf("median of %d windows, %d samples, at least %d beyond in each window",
			sum.tailWindows, n, minTailOps/100),
	}
	report(stdout, res.Metrics, notes)
	return res, nil
}

// traced measures the workload untraced and traced, then replays its
// documents layer by layer, and reports the per-layer metrics.
func traced(cfg config, stdout io.Writer) (*result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if _, err := r.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// The untraced and the traced phase share the run's seconds.
	d := time.Duration(cfg.seconds) * time.Second / 2
	rec := newRecorder()
	var m map[string]float64
	var checked []*phase
	var plain, withSpans *phase
	switch w := r.(type) {
	case *bulkRunner:
		if plain, err = w.measure(d, nil); err != nil {
			return nil, err
		}
		if withSpans, err = w.measure(d, rec); err != nil {
			return nil, err
		}
		lt, err := w.ledger(rec, int64(withSpans.attempted))
		if err != nil {
			return nil, err
		}
		m = w.perLayer(plain, withSpans, rec, lt)
		checked = []*phase{plain, withSpans}
	case *serveRunner:
		before, err := w.scrape()
		if err != nil {
			return nil, err
		}
		if plain, err = w.measure(d, nil); err != nil {
			return nil, err
		}
		after, err := w.scrape()
		if err != nil {
			return nil, err
		}
		if withSpans, err = w.measure(d, rec); err != nil {
			return nil, err
		}
		lt, probe, err := w.ledger(rec)
		if err != nil {
			return nil, err
		}
		m = w.perLayer(after.sub(before), rec, lt)
		checked = []*phase{plain, withSpans, probe}
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	m["trace.overhead_share"] = 1 - withSpans.summary().mbs/plain.summary().mbs
	m["runtime.gc_cpu_fraction"] = ratio(plain.gcCPU, plain.totalCPU)
	m["runtime.gc_per_1k_docs"] = float64(plain.numGC) * 1000 / float64(plain.completed())

	res := &result{Metrics: make(map[string]metric)}
	for _, pl := range perLayerMetrics {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	verdict(res, checked...)
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))
	if err := rec.writeTSV(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, traced: %d of %d operations failed; spans in %s\n",
		cfg.workload, cfg.seed, res.Failed, res.Attempted, path)
	report(stdout, res.Metrics, nil)
	return res, nil
}

// perLayerMetrics lists every per-layer metric with its unit. Layers a
// workload's path does not reach report 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"tagtree.parse_us", "us"},
	{"tagtree.fanout_us", "us"},
	{"tagtree.candidates_us", "us"},
	{"recognizer.recognize_us", "us"},
	{"recognizer.table_entries", "count"},
	{"heuristic.OM_us", "us"},
	{"heuristic.RP_us", "us"},
	{"heuristic.SD_us", "us"},
	{"heuristic.IT_us", "us"},
	{"heuristic.HT_us", "us"},
	{"heuristic.declined", "count"},
	{"certainty.compound_us", "us"},
	{"core.discover_us", "us"},
	{"core.ledger_gap", "ratio"},
	{"template.fingerprint_us", "us"},
	{"template.lookup_us", "us"},
	{"template.hit_ratio", "ratio"},
	{"httpapi.request_key_us", "us"},
	{"httpapi.handler_us", "us"},
	{"httpapi.cache_hit_ratio", "ratio"},
	{"httpapi.unattributed_share", "ratio"},
	{"httpapi.transport_us", "us"},
	{"pipeline.source_next_us", "us"},
	{"pipeline.sink_write_us", "us"},
	{"pipeline.overhead_share", "ratio"},
	{"ledger.recognize_share", "ratio"},
	{"ledger.parse_heuristic_share", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_per_1k_docs", "count"},
	{"trace.overhead_share", "ratio"},
}

// report prints one line per metric: name, value, unit and a note.
func report(w io.Writer, ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6f %-6s %s\n", n, ms[n].Value, ms[n].Unit, notes[n])
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
