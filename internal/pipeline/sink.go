package pipeline

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Sink receives completed outcomes in input order. Write returns the output
// file the outcome landed in (empty for non-file sinks) and the file's end
// offset after the write — the pair the checkpoint journal records so a
// resumed run can truncate away torn trailing writes.
type Sink interface {
	Write(o *Outcome) (file string, end int64, err error)
	Close() error
}

// ShardedFileSink appends one NDJSON line per outcome to
// <dir>/results[-<shard>].ndjson, opening shard files lazily and tracking
// their end offsets. Writes are unbuffered appends so the journaled offset
// always describes bytes actually handed to the OS.
type ShardedFileSink struct {
	dir string

	mu      sync.Mutex
	files   map[string]*os.File // file name → open handle
	offsets map[string]int64    // file name → current end offset
	line    []byte              // reused encoding buffer, under mu
}

// NewShardedFileSink creates dir if needed and returns an empty sink.
func NewShardedFileSink(dir string) (*ShardedFileSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ShardedFileSink{
		dir:     dir,
		files:   make(map[string]*os.File),
		offsets: make(map[string]int64),
	}, nil
}

// ShardFile maps a shard label to its output file name: results.ndjson for
// the default shard, results-<slug>.ndjson otherwise.
func ShardFile(shard string) string {
	if shard == "" {
		return "results.ndjson"
	}
	return "results-" + slugify(shard) + ".ndjson"
}

// slugify keeps shard-derived file names safe: lowercase letters, digits,
// dash and underscore survive; everything else becomes a dash.
func slugify(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Truncate cuts every known result file back to its journaled offset,
// discarding bytes written after the last checkpoint (a torn final line from
// a killed run). Result files on disk that the journal never mentions are
// truncated to zero — every byte they hold is un-checkpointed. Call it once,
// before Run, when resuming.
func (s *ShardedFileSink) Truncate(offsets map[string]int64) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, "results") || !strings.HasSuffix(name, ".ndjson") {
			continue
		}
		if err := os.Truncate(filepath.Join(s.dir, name), offsets[name]); err != nil {
			return err
		}
	}
	s.mu.Lock()
	for name, off := range offsets {
		s.offsets[name] = off
	}
	s.mu.Unlock()
	return nil
}

// Write appends the outcome to its shard file.
func (s *ShardedFileSink) Write(o *Outcome) (string, int64, error) {
	name := ShardFile(o.Shard)
	s.mu.Lock()
	defer s.mu.Unlock()
	line, err := AppendOutcome(s.line[:0], o)
	s.line = line
	if err != nil {
		return "", 0, err
	}
	f, ok := s.files[name]
	if !ok {
		f, err = os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return "", 0, err
		}
		// Resume appends after the journaled offset; Truncate already cut
		// the file there, so seek to the current end.
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return "", 0, err
		}
		s.files[name] = f
		if _, seen := s.offsets[name]; !seen {
			info, err := f.Stat()
			if err != nil {
				return "", 0, err
			}
			s.offsets[name] = info.Size()
		}
	}
	n, err := f.Write(line)
	s.offsets[name] += int64(n)
	if err != nil {
		return name, s.offsets[name], fmt.Errorf("pipeline: writing %s: %w", name, err)
	}
	return name, s.offsets[name], nil
}

// Close closes every open shard file, returning the first error.
func (s *ShardedFileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, f := range s.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.files = make(map[string]*os.File)
	return firstErr
}

// WriterSink streams outcomes as NDJSON to one writer — the shape behind
// POST /v1/discover/stream and cmd/bulk's stdout mode. flush, when non-nil,
// runs after every line so a network peer sees results as they complete.
type WriterSink struct {
	w     io.Writer
	flush func()
	off   int64
	line  []byte // reused encoding buffer
}

// NewWriterSink wraps w; flush may be nil.
func NewWriterSink(w io.Writer, flush func()) *WriterSink {
	return &WriterSink{w: w, flush: flush}
}

// Write emits one NDJSON line. Like the engine's emitter, it must not be
// called concurrently.
func (s *WriterSink) Write(o *Outcome) (string, int64, error) {
	line, err := AppendOutcome(s.line[:0], o)
	s.line = line
	if err != nil {
		return "", 0, err
	}
	n, err := s.w.Write(line)
	s.off += int64(n)
	if err != nil {
		return "", s.off, err
	}
	if s.flush != nil {
		s.flush()
	}
	return "", s.off, nil
}

// Close is a no-op; the caller owns the writer.
func (s *WriterSink) Close() error { return nil }
