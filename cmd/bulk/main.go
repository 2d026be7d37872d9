// Command bulk streams a document corpus through record-boundary discovery:
// NDJSON tasks (or a directory of HTML/XML files) in, per-shard NDJSON
// results out, with a bounded worker pool, transient-failure retries, and a
// checkpoint journal that makes a killed run resumable without re-processing
// anything already written.
//
// Usage:
//
//	bulk -in corpus.ndjson -out results/
//	bulk -in pages/ -ontology obituary -out results/
//	cat corpus.ndjson | bulk -in - -out -        # stream stdin → stdout
//	bulk -in samples/ -out learned/ -wrapper-store site.store  # seed learned wrappers
//
// Input lines carry the /v1/discover request fields plus bulk labels:
//
//	{"id":"tribune-3","html":"<html>...","ontology":"obituary","shard":"obituary"}
//
// Results land in <out>/results[-<shard>].ndjson in input order; the
// journal (default <out>/checkpoint.ndjson) records each completed document
// and its output offset. Re-running the same command after a kill resumes:
// completed documents are skipped, torn trailing writes are truncated away,
// and the final output is byte-identical to an uninterrupted run.
//
// Flags: -workers bounds the pool (0 = GOMAXPROCS); -max-attempts,
// -retry-base, -retry-max govern transient-failure retries;
// -attempt-timeout bounds one document attempt (expiry is retried);
// -max-doc-bytes/-max-tree-depth/-max-nodes bound parse resources as on the
// serving surface; -metrics dumps the run's Prometheus counters to stderr at
// exit; -trace dumps the run's trace — its ID and the per-stage span table
// every document contributed to — to stderr at exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/pipeline"
	"repro/internal/tagtree"
	"repro/internal/template"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bulk:", err)
		os.Exit(1)
	}
}

// run wires flags to one engine run. stdin/stdout stand in for "-" paths so
// tests can drive the full CLI surface.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bulk", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "-", "input: NDJSON file, directory of .html/.xml files, or - for stdin")
	out := fs.String("out", "", "output directory for sharded results, or - for stdout NDJSON")
	checkpoint := fs.String("checkpoint", "",
		"checkpoint journal path (default <out>/checkpoint.ndjson; \"none\" disables)")
	workers := fs.Int("workers", 0, "concurrent documents; 0 means GOMAXPROCS")
	window := fs.Int("window", 0, "reorder window (documents); 0 means 4*workers")
	maxAttempts := fs.Int("max-attempts", 3, "attempts per document before a transient failure is final")
	retryBase := fs.Duration("retry-base", 25*time.Millisecond, "first retry backoff")
	retryMax := fs.Duration("retry-max", time.Second, "retry backoff cap")
	attemptTimeout := fs.Duration("attempt-timeout", 0,
		"per-attempt processing deadline (expiry retries); 0 disables")
	ontologySrc := fs.String("ontology", "",
		"ontology for directory inputs: built-in name or DSL file path; NDJSON lines carry their own")
	shard := fs.String("shard", "", "shard label for directory inputs")
	maxLine := fs.Int("max-line-bytes", 0,
		fmt.Sprintf("max NDJSON input line bytes, not counting the line terminator; 0 means %d", pipeline.DefaultMaxLineBytes))
	maxDocBytes := fs.Int("max-doc-bytes", 0, "max document size in bytes; 0 disables")
	maxTreeDepth := fs.Int("max-tree-depth", 0, "max tag-tree nesting depth; 0 disables")
	maxNodes := fs.Int("max-nodes", 0, "max tag-tree node count; 0 disables")
	dumpMetrics := fs.Bool("metrics", false, "dump the run's metrics in Prometheus text form to stderr")
	dumpTrace := fs.Bool("trace", false, "dump the run's trace (ID plus per-stage span table) to stderr")
	wrapperStore := fs.String("wrapper-store", "",
		"path of the learned-wrapper store journal enabling the template fast path (docs/WRAPPER.md); empty disables")
	spotCheckRate := fs.Int("spot-check-rate", 64,
		"re-verify every Nth template fast-path hit against full discovery; 0 disables spot-checks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-out is required (a directory, or - for stdout)")
	}
	if *maxAttempts < 1 {
		return fmt.Errorf("-max-attempts must be >= 1, got %d", *maxAttempts)
	}
	if *spotCheckRate < 0 {
		return fmt.Errorf("-spot-check-rate must be >= 0, got %d", *spotCheckRate)
	}

	ontSrc, err := resolveOntologyFlag(*ontologySrc)
	if err != nil {
		return err
	}
	src, srcClose, err := openSource(*in, stdin, ontSrc, *shard, *maxLine)
	if err != nil {
		return err
	}
	defer srcClose()

	metrics := obs.NewRegistry()
	var trace *obs.Trace
	if *dumpTrace {
		trace = obs.NewTrace()
		trace.SetRoot("bulk", "run")
	}
	// A corpus dominated by a few site templates pays full discovery once
	// per template; the rest of the run serves from the wrapper store, and
	// the journal carries what was learned into the next run.
	var templates *template.Store
	if *wrapperStore != "" {
		templates, err = template.Open(template.Config{
			Path:           *wrapperStore,
			SpotCheckEvery: *spotCheckRate,
			Metrics:        metrics,
		})
		if err != nil {
			return fmt.Errorf("-wrapper-store: %w", err)
		}
		defer templates.Close()
	}
	eng := pipeline.New(pipeline.Config{
		Workers: *workers,
		Window:  *window,
		Retry: pipeline.RetryPolicy{
			MaxAttempts: *maxAttempts,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
		},
		AttemptTimeout: *attemptTimeout,
		Metrics:        metrics,
		Trace:          trace,
		Limits: tagtree.Limits{
			MaxBytes: *maxDocBytes,
			MaxDepth: *maxTreeDepth,
			MaxNodes: *maxNodes,
		},
		Templates: templates,
	})

	var (
		sink    pipeline.Sink
		journal *pipeline.Journal
	)
	if *out == "-" {
		if *checkpoint != "" && *checkpoint != "none" {
			return errors.New("-checkpoint needs a directory output (-out -): stdout runs cannot resume")
		}
		sink = pipeline.NewWriterSink(stdout, nil)
	} else {
		fileSink, err := pipeline.NewShardedFileSink(*out)
		if err != nil {
			return err
		}
		sink = fileSink
		jpath := *checkpoint
		if jpath == "" {
			jpath = filepath.Join(*out, "checkpoint.ndjson")
		}
		if jpath != "none" {
			journal, err = pipeline.OpenJournal(jpath)
			if err != nil {
				return err
			}
			defer journal.Close()
			if n := journal.DoneCount(); n > 0 {
				fmt.Fprintf(stderr, "bulk: resuming from %s: %d documents already complete\n", jpath, n)
			}
			if err := fileSink.Truncate(journal.Offsets()); err != nil {
				return err
			}
		}
	}
	defer sink.Close()

	stats, runErr := eng.Run(ctx, src, sink, journal)
	fmt.Fprintf(stderr,
		"bulk: read=%d skipped=%d ok=%d degraded=%d failed=%d canceled=%d retries=%d\n",
		stats.Read, stats.Skipped, stats.OK, stats.Degraded, stats.Failed,
		stats.Canceled, stats.Retries)
	if *dumpMetrics {
		_ = metrics.WritePrometheus(stderr)
	}
	if trace != nil {
		trace.Finish()
		fmt.Fprintf(stderr, "bulk: trace id: %s\n%s", trace.ID(), trace.Table())
	}
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) && journal != nil {
			return fmt.Errorf("interrupted; re-run the same command to resume from the checkpoint (%w)", runErr)
		}
		return runErr
	}
	return nil
}

// openSource maps the -in flag to a task source plus a cleanup: "-" reads
// NDJSON from stdin, a directory reads its document files, anything else is
// an NDJSON file.
func openSource(in string, stdin io.Reader, ontologySrc, shard string, maxLine int) (pipeline.Source, func() error, error) {
	noop := func() error { return nil }
	if in == "-" {
		return pipeline.NewNDJSONSource(stdin, maxLine), noop, nil
	}
	info, err := os.Stat(in)
	if err != nil {
		return nil, nil, err
	}
	if info.IsDir() {
		src, err := pipeline.NewDirSource(in, ontologySrc, shard)
		if err != nil {
			return nil, nil, err
		}
		return src, noop, nil
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, nil, err
	}
	return pipeline.NewNDJSONSource(f, maxLine), f.Close, nil
}

// resolveOntologyFlag turns the -ontology flag into task ontology source:
// empty stays empty, a built-in name passes through, anything else is read
// as a DSL file whose contents become the source (validated here so a typo
// fails the run up front rather than per document).
func resolveOntologyFlag(name string) (string, error) {
	if name == "" || ontology.Builtin(name) != nil {
		return name, nil
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return "", fmt.Errorf("ontology %q is neither built-in nor readable: %w", name, err)
	}
	if _, err := ontology.Parse(string(src)); err != nil {
		return "", fmt.Errorf("ontology file %s: %w", name, err)
	}
	return string(src), nil
}
