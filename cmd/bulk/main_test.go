package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/paperdoc"
	"repro/internal/testutil"
)

func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }

// runBulk drives the CLI's run() with the given args and stdin.
func runBulk(t *testing.T, args []string, stdin string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err = run(context.Background(), args, strings.NewReader(stdin), &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func decodeNDJSON(t *testing.T, data string) []map[string]json.RawMessage {
	t.Helper()
	var lines []map[string]json.RawMessage
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		if line == "" {
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		lines = append(lines, m)
	}
	return lines
}

func fieldStr(t *testing.T, m map[string]json.RawMessage, key string) string {
	t.Helper()
	if m[key] == nil {
		return ""
	}
	var s string
	if err := json.Unmarshal(m[key], &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStdinToStdout(t *testing.T) {
	input := `{"id":"a","html":"<div><hr><b>A</b> one<hr><b>B</b> two<hr><b>C</b> three</div>"}` + "\n" +
		`{"id":"b","xml":"<feed><entry>a b</entry><entry>c d</entry><entry>e f</entry></feed>"}` + "\n"
	stdout, stderr, err := runBulk(t, []string{"-in", "-", "-out", "-"}, input)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	lines := decodeNDJSON(t, stdout)
	if len(lines) != 2 {
		t.Fatalf("got %d output lines, want 2", len(lines))
	}
	if got := fieldStr(t, lines[0], "separator"); got != "hr" {
		t.Errorf("line 0 separator = %q", got)
	}
	if got := fieldStr(t, lines[1], "separator"); got != "entry" {
		t.Errorf("line 1 separator = %q", got)
	}
	if !strings.Contains(stderr, "ok=2") {
		t.Errorf("stats line missing from stderr: %q", stderr)
	}
}

func TestFileToShardedDir(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "corpus.ndjson")
	var b strings.Builder
	for _, d := range corpus.TestDocuments()[:4] {
		line, err := json.Marshal(map[string]any{
			"id":       d.Site.Name,
			"html":     d.HTML,
			"ontology": string(d.Site.Domain),
			"shard":    string(d.Site.Domain),
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(inPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "results")
	_, stderr, err := runBulk(t, []string{"-in", inPath, "-out", outDir, "-workers", "2"}, "")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "results-obituary.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(decodeNDJSON(t, string(data))); got != 4 {
		t.Errorf("obituary shard has %d lines, want 4", got)
	}
	if _, err := os.Stat(filepath.Join(outDir, "checkpoint.ndjson")); err != nil {
		t.Errorf("checkpoint journal missing: %v", err)
	}

	// Re-running the finished job is a no-op resume: everything skipped.
	_, stderr, err = runBulk(t, []string{"-in", inPath, "-out", outDir, "-workers", "2"}, "")
	if err != nil {
		t.Fatalf("resume run: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "resuming from") || !strings.Contains(stderr, "skipped=4") {
		t.Errorf("resume stderr = %q", stderr)
	}
}

func TestDirInputWithOntologyFlag(t *testing.T) {
	dir := t.TempDir()
	docs := filepath.Join(dir, "pages")
	if err := os.Mkdir(docs, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(docs, "fig2.html"), []byte(paperdoc.Figure2), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := runBulk(t,
		[]string{"-in", docs, "-out", "-", "-checkpoint", "none", "-ontology", "obituary"}, "")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	lines := decodeNDJSON(t, stdout)
	if len(lines) != 1 || fieldStr(t, lines[0], "separator") != "hr" {
		t.Fatalf("output = %q", stdout)
	}
	if got := fieldStr(t, lines[0], "id"); got != "fig2.html" {
		t.Errorf("id = %q, want file name", got)
	}
}

func TestFlagValidation(t *testing.T) {
	if _, _, err := runBulk(t, []string{"-in", "-"}, ""); err == nil ||
		!strings.Contains(err.Error(), "-out is required") {
		t.Errorf("missing -out: err = %v", err)
	}
	if _, _, err := runBulk(t, []string{"-in", "-", "-out", "-", "-max-attempts", "0"}, ""); err == nil ||
		!strings.Contains(err.Error(), "max-attempts") {
		t.Errorf("bad -max-attempts: err = %v", err)
	}
	if _, _, err := runBulk(t,
		[]string{"-in", "-", "-out", "-", "-checkpoint", "ck.ndjson"}, ""); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Errorf("checkpoint with stdout: err = %v", err)
	}
	if _, _, err := runBulk(t,
		[]string{"-in", "-", "-out", "-", "-ontology", "no-such-ontology"}, ""); err == nil ||
		!strings.Contains(err.Error(), "ontology") {
		t.Errorf("bad -ontology: err = %v", err)
	}
}

func TestOntologyDSLFile(t *testing.T) {
	dir := t.TempDir()
	// An invalid DSL file must fail up front, not per document.
	bad := filepath.Join(dir, "bad.ont")
	if err := os.WriteFile(bad, []byte("object x ("), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runBulk(t, []string{"-in", "-", "-out", "-", "-ontology", bad}, ""); err == nil {
		t.Error("invalid DSL file should fail the run up front")
	}
}

func TestMetricsDump(t *testing.T) {
	input := `{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>"}` + "\n"
	_, stderr, err := runBulk(t, []string{"-in", "-", "-out", "-", "-metrics"}, input)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "boundary_bulk_documents_total") {
		t.Errorf("-metrics dump missing bulk counters: %q", stderr)
	}
}

func TestCanceledRunSuggestsResume(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	err := run(ctx, []string{"-in", "-", "-out", dir},
		strings.NewReader(`{"html":"<p>x</p>"}`+"\n"), &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Errorf("canceled run err = %v, want resume hint", err)
	}
}

// TestWrapperStoreLearnThenApply is the learn-from-samples workflow: one run
// over a directory of sample pages seeds a wrapper store, and a later run
// with the same store answers a page of the same template from it — with
// output byte-identical to a run that has no store at all.
func TestWrapperStoreLearnThenApply(t *testing.T) {
	dir := t.TempDir()
	var samples []string
	for _, d := range corpus.TestDocuments() {
		if d.Site.Domain == corpus.Obituaries && len(samples) < 3 {
			samples = append(samples, d.HTML)
		}
	}
	writePages := func(name string, pages ...string) string {
		t.Helper()
		pagesDir := filepath.Join(dir, name)
		if err := os.Mkdir(pagesDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, page := range pages {
			file := filepath.Join(pagesDir, fmt.Sprintf("page%d.html", i))
			if err := os.WriteFile(file, []byte(page), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return pagesDir
	}
	store := filepath.Join(dir, "site.store")
	bulk := func(in, out string, extra ...string) string {
		t.Helper()
		args := append([]string{"-in", in, "-out", filepath.Join(dir, out), "-ontology", "obituary"}, extra...)
		_, stderr, err := runBulk(t, args, "")
		if err != nil {
			t.Fatalf("bulk %v: %v\n%s", args, err, stderr)
		}
		return stderr
	}

	bulk(writePages("samples", samples...), "learn", "-wrapper-store", store)

	// The new page shares the first sample's template but not its bytes.
	newPages := writePages("new", corpus.Mangle(samples[0], 1))
	stderr := bulk(newPages, "apply", "-wrapper-store", store, "-metrics")
	m := regexp.MustCompile(`(?m)^boundary_template_hits_total (\S+)$`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("-metrics dump has no template hit counter:\n%s", stderr)
	}
	if hits, err := strconv.ParseFloat(m[1], 64); err != nil || hits < 1 {
		t.Fatalf("boundary_template_hits_total = %s, want >= 1", m[1])
	}

	bulk(newPages, "reference")
	got, err := os.ReadFile(filepath.Join(dir, "apply", "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "reference", "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`"separator":"`)) {
		t.Fatalf("reference run found no separator: %s", want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("store-served results differ from full discovery:\n got %s\nwant %s", got, want)
	}
}
