package pipeline

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestCheckpointSecondResumeKeepsFirstResumeProgress: a run killed mid-append
// leaves a torn final line; the resume that follows must checkpoint on clean
// lines so that a second kill and resume still sees everything the first
// resume wrote. Reopening without Close stands in for kill -9.
func TestCheckpointSecondResumeKeepsFirstResumeProgress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(0, "results.ndjson", 100); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"put":{"seq":1,"fi`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resume1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer resume1.Close()
	if n := resume1.DoneCount(); n != 1 {
		t.Fatalf("first resume sees %d done, want 1", n)
	}
	for seq := 1; seq <= 4; seq++ {
		if err := resume1.Append(seq, "results.ndjson", int64(100*(seq+1))); err != nil {
			t.Fatal(err)
		}
	}

	resume2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer resume2.Close()
	if n := resume2.DoneCount(); n != 5 {
		t.Fatalf("second resume sees %d done, want 5", n)
	}
	if off := resume2.Offsets()["results.ndjson"]; off != 500 {
		t.Fatalf("second resume offset = %d, want 500", off)
	}
}

// TestCheckpointCountsOnlyLandedEntries: a checkpoint append that fails (the
// journal is closed) stops the run with that error and is not counted.
func TestCheckpointCountsOnlyLandedEntries(t *testing.T) {
	jr, err := OpenJournal(filepath.Join(t.TempDir(), "checkpoint.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	tasks := []*Task{{ID: "a", Mode: "html", Doc: figure2ish}}
	var out bytes.Buffer
	_, err = New(Config{Workers: 1, Metrics: metrics}).Run(
		context.Background(), NewSliceSource(tasks), NewWriterSink(&out, nil), jr)
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Run returned %v, want the closed journal's append error", err)
	}
	if got := metrics.Counter("boundary_bulk_checkpoint_entries_total", "").Value(); got != 0 {
		t.Fatalf("checkpoint counter = %v after a failed append, want 0", got)
	}
}
