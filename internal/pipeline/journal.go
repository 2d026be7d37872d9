package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/journal"
)

// Journal is the append-only checkpoint log that makes a bulk run resumable.
// One entry is appended after each outcome's bytes reach its output file, so
// on restart the set of journaled sequence numbers is exactly the set of
// documents whose results are already durable — those are skipped — and the
// per-file end offsets let the sink truncate away any torn write that
// happened after the final checkpoint. A document is therefore never
// processed twice, and a resumed run's output is byte-identical to an
// uninterrupted one.
//
// The log is an internal/journal file of put records, one per document:
//
//	{"v":1,"put":{"seq":17,"file":"results-carad.ndjson","offset":8831}}
//
// It is never compacted. A torn final line (the run was killed mid-append)
// is cut on open and that entry's document simply runs again; damage before
// the final line fails the open with an error wrapping journal.ErrCorrupt.
type Journal struct {
	log *journal.Journal

	mu      sync.Mutex
	done    map[int]bool
	offsets map[string]int64
}

// journalEntry is one checkpoint record.
type journalEntry struct {
	Seq    int    `json:"seq"`
	File   string `json:"file,omitempty"`
	Offset int64  `json:"offset,omitempty"`
}

// OpenJournal opens (creating if absent) the journal at path and replays its
// entries.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{done: make(map[int]bool), offsets: make(map[string]int64)}
	log, err := journal.Open(journal.Config{Path: path},
		func(put json.RawMessage) error {
			var e journalEntry
			if err := json.Unmarshal(put, &e); err != nil {
				return err
			}
			j.record(e)
			return nil
		},
		func(string) error { return errors.New("a checkpoint holds no evictions") })
	if err != nil {
		return nil, fmt.Errorf("pipeline: opening journal %s: %w", path, err)
	}
	j.log = log
	return j, nil
}

// record marks e's document done and advances its file's offset. Callers
// other than replay hold mu.
func (j *Journal) record(e journalEntry) {
	j.done[e.Seq] = true
	if e.File != "" && e.Offset > j.offsets[e.File] {
		j.offsets[e.File] = e.Offset
	}
}

// Done reports whether seq was checkpointed by a previous run.
func (j *Journal) Done(seq int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[seq]
}

// DoneCount returns how many documents the journal records as complete.
func (j *Journal) DoneCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Offsets returns the per-file end offsets of the journaled results — the
// truncation map for ShardedFileSink.Truncate.
func (j *Journal) Offsets() map[string]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int64, len(j.offsets))
	for k, v := range j.offsets {
		out[k] = v
	}
	return out
}

// Append checkpoints one completed document. The entry is written with a
// single Write call so a kill can tear at most the final line.
func (j *Journal) Append(seq int, file string, offset int64) error {
	e := journalEntry{Seq: seq, File: file, Offset: offset}
	put, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := j.log.Append(put, 0); err != nil {
		return fmt.Errorf("pipeline: appending journal entry: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.record(e)
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	return j.log.Close()
}
