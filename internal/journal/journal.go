// Package journal is the shared NDJSON write-ahead journal behind the
// system's two durable logs: the learned-wrapper store (internal/template)
// persists through it, so a restarted replica comes back warm instead of
// stampeding the heuristics, and the bulk engine's checkpoint
// (internal/pipeline) records through it which documents a killed run
// already wrote.
//
// The format is one JSON record per line, each carrying exactly one of a
// "put" payload (opaque to this package) or an "evict" key. Recovery
// tolerates a torn final line — a crash mid-append loses only the record
// that was never acknowledged, and Open cuts it from the file so later
// appends start on a clean line — while damage anywhere earlier refuses to
// open with an error wrapping ErrCorrupt, because silently serving a
// partial memory is worse than relearning from scratch.
//
// Compaction rewrites the journal as one put per live entry once enough
// dead lines (superseded puts, evictions) accumulate. The rewrite goes
// through a temp file that is fsynced BEFORE the rename: a crash at any
// point leaves either the complete old journal or the complete new one on
// disk, never a half-compacted hybrid. The journal/compact fault hook
// (docs/ROBUSTNESS.md) lets chaos tests kill a compaction between the
// temp-file write and the rename and prove recovery. A journal opened
// without a Snapshot is never compacted.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/faultinject"
)

// ErrCorrupt marks a journal whose body (not merely its torn tail) fails to
// decode or apply. Callers distinguish it from I/O errors with errors.Is.
var ErrCorrupt = errors.New("journal: corrupt journal")

// FaultCompact fires inside compaction after the temp file is written and
// synced but before the rename commits it. An armed error aborts the
// compaction at exactly the point a crash would, leaving the old journal
// (and a stray temp file) behind — recovery must see the full
// pre-compaction state.
const FaultCompact = "journal/compact"

// DefaultCompactThreshold is how many journal lines accumulate before a
// compaction is considered (it still waits until the journal holds at least
// twice as many lines as live entries, so a large working set is not
// rewritten over and over).
const DefaultCompactThreshold = 4096

// Line is one journal record: exactly one of Put or Evict is set.
type Line struct {
	V     int             `json:"v"`
	Put   json.RawMessage `json:"put,omitempty"`
	Evict string          `json:"evict,omitempty"`
}

// Config configures a Journal.
type Config struct {
	// Path is the journal file; required.
	Path string
	// CompactThreshold overrides DefaultCompactThreshold; <= 0 selects it.
	CompactThreshold int
	// Snapshot returns the live set as marshaled put payloads, oldest
	// first — the lines a compaction writes. Required for compaction to
	// run; nil disables it (the journal grows unbounded).
	Snapshot func() []json.RawMessage
	// Faults is the chaos-test hook set (FaultCompact); nil disables.
	Faults *faultinject.Set
}

// Journal is an append-only NDJSON log with replay and compaction. Methods
// are safe for concurrent use.
type Journal struct {
	cfg Config

	mu    sync.Mutex
	file  *os.File
	lines int // journal lines since the last compaction
}

// Open replays the journal at cfg.Path — calling apply for every put line
// and evict for every evict line, in file order — and then opens it for
// appends. A missing file is an empty journal. The final line may be torn
// (undecodable, or rejected by apply/evict): it is skipped and cut from the
// file, so the next append starts on a line of its own. A final record that
// applies but lost its newline is kept and terminated. The same damage
// anywhere earlier returns an error wrapping ErrCorrupt.
func Open(cfg Config, apply func(put json.RawMessage) error, evict func(key string) error) (*Journal, error) {
	if cfg.Path == "" {
		return nil, errors.New("journal: a path is required")
	}
	if cfg.CompactThreshold <= 0 {
		cfg.CompactThreshold = DefaultCompactThreshold
	}
	data, err := os.ReadFile(cfg.Path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	j := &Journal{cfg: cfg}
	keep, err := j.replay(data, apply, evict)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if keep < len(data) {
		err = f.Truncate(int64(keep))
	}
	if err == nil && keep > 0 && data[keep-1] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	j.file = f
	return j, nil
}

// replay loads data through the caller's apply/evict callbacks and returns
// the length of its committed prefix: everything up to and including the
// last line that applied.
func (j *Journal) replay(data []byte, apply func(put json.RawMessage) error, evict func(key string) error) (int, error) {
	keep, lineNo := 0, 0
	for off := 0; off < len(data); {
		ln, next := data[off:], len(data)
		if i := bytes.IndexByte(ln, '\n'); i >= 0 {
			ln, next = ln[:i], off+i+1
		}
		off = next
		if len(ln) == 0 {
			continue // a blank line is not a record
		}
		lineNo++
		if err := replayLine(ln, apply, evict); err != nil {
			if len(bytes.TrimLeft(data[next:], "\n")) == 0 {
				return keep, nil // torn tail: the record was never acknowledged
			}
			return 0, fmt.Errorf("%w: line %d: %v", ErrCorrupt, lineNo, err)
		}
		j.lines++
		keep = next
	}
	return keep, nil
}

// replayLine decodes one record and hands it to apply or evict.
func replayLine(ln []byte, apply func(put json.RawMessage) error, evict func(key string) error) error {
	var rec Line
	if err := json.Unmarshal(ln, &rec); err != nil {
		return err
	}
	switch {
	case rec.Put != nil:
		return apply(rec.Put)
	case rec.Evict != "":
		return evict(rec.Evict)
	}
	return errors.New("neither put nor evict")
}

// Append writes one put record. live is the caller's current live-entry
// count, which gates compaction. A compaction failure is not reported: the
// record is on disk either way.
func (j *Journal) Append(put json.RawMessage, live int) error {
	return j.append(Line{V: 1, Put: put}, live)
}

// AppendEvict writes one evict record.
func (j *Journal) AppendEvict(key string, live int) error {
	return j.append(Line{V: 1, Evict: key}, live)
}

func (j *Journal) append(rec Line, live int) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return fmt.Errorf("journal: append: %w", os.ErrClosed)
	}
	if _, err := j.file.Write(b); err != nil {
		return err
	}
	j.lines++
	if j.cfg.Snapshot != nil && j.lines >= j.cfg.CompactThreshold && j.lines > 2*live {
		j.compactLocked()
	}
	return nil
}

// Compact rewrites the journal as one put line per live entry now,
// regardless of thresholds. Tests and Close use it; the append path
// compacts automatically.
func (j *Journal) Compact() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil || j.cfg.Snapshot == nil {
		return
	}
	j.compactLocked()
}

// compactLocked rewrites the journal from the live snapshot through a temp
// file that is fsynced before the rename: a crash on either side of the
// rename leaves a complete journal — the old one or the new one, never a
// torn hybrid.
func (j *Journal) compactLocked() {
	tmp := j.cfg.Path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	n := 0
	for _, put := range j.cfg.Snapshot() {
		b, err := json.Marshal(Line{V: 1, Put: put})
		if err != nil {
			continue
		}
		w.Write(b)
		w.WriteByte('\n')
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	// The fsync must land before the rename: rename is atomic on the
	// directory entry, but without the sync a crash after it could expose
	// a name pointing at unwritten data.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	if err := j.cfg.Faults.Fire(FaultCompact); err != nil {
		// A chaos test is simulating a crash between the temp-file write
		// and the rename: abort exactly as a crash would, temp file left
		// behind, the live journal untouched.
		return
	}
	if err := os.Rename(tmp, j.cfg.Path); err != nil {
		os.Remove(tmp)
		return
	}
	j.file.Close()
	nf, err := os.OpenFile(j.cfg.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.file = nil
		return
	}
	j.file = nf
	j.lines = n
}

// Lines returns the journal's current line count (post-replay, including
// appends since the last compaction). Tests use it to observe compaction.
func (j *Journal) Lines() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines
}

// Close compacts (when a snapshot is available) and closes the journal.
// Safe to call on a nil journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return nil
	}
	if j.cfg.Snapshot != nil {
		j.compactLocked()
	}
	var err error
	if j.file != nil {
		err = j.file.Close()
		j.file = nil
	}
	return err
}
