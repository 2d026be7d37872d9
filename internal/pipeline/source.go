package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Source yields tasks in input order with dense sequence numbers starting at
// zero. Next returns io.EOF after the last task; any other error aborts the
// run (per-document problems travel inside the Task instead, see
// Task.invalid).
type Source interface {
	Next() (*Task, error)
}

// DefaultMaxLineBytes bounds one NDJSON input line when the caller does not
// choose a limit — the same envelope the HTTP surface enforces per body.
const DefaultMaxLineBytes = 8 << 20

// NDJSONSource reads one task per JSON line. Blank lines are skipped; a
// malformed or oversized line becomes a Task with an inline error rather
// than ending the stream, so a single corrupt record cannot sink a corpus
// run. Sequence numbers count every non-blank line (including invalid
// ones), keeping Seq assignment stable across resumed runs.
//
// Each task's Doc views a recycled buffer that the engine hands back once
// the task's outcome is written (see Task.Doc); the id, ontology, shard and
// separator list are owned strings. A caller that never hands tasks back
// simply leaves the buffers to the collector.
type NDJSONSource struct {
	r       *bufio.Reader
	maxLine int
	seq     int
	done    bool
	line    []byte // reused across lines; decoded values never alias it
	dec     EnvelopeDecoder
	tl      taskLine // reused decode target; its values move to the Task
}

// NewNDJSONSource wraps r; maxLine bounds one line's content bytes, not
// counting its "\n" or "\r\n" terminator (0 selects DefaultMaxLineBytes).
func NewNDJSONSource(r io.Reader, maxLine int) *NDJSONSource {
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	return &NDJSONSource{r: bufio.NewReader(r), maxLine: maxLine}
}

// Next returns the next task or io.EOF.
func (s *NDJSONSource) Next() (*Task, error) {
	for {
		if s.done {
			return nil, io.EOF
		}
		line, tooLong, err := s.readLine()
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
		if errors.Is(err, io.EOF) {
			s.done = true
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 && !tooLong {
			continue
		}
		t := &Task{Seq: s.seq}
		s.seq++
		if tooLong {
			t.invalid = fmt.Errorf("input line exceeds the %d-byte limit", s.maxLine)
			return t, nil
		}
		tl := &s.tl
		*tl = taskLine{}
		if _, ok := s.dec.decode(line, tl); !ok {
			PutDocBuf(tl.docBuf)
			*tl = taskLine{}
			if err := json.Unmarshal(line, tl); err != nil {
				t.invalid = fmt.Errorf("bad input line: %w", err)
				return t, nil
			}
		}
		t.ID = tl.ID
		t.docBuf = tl.docBuf
		t.Ontology = tl.Ontology
		t.SeparatorList = tl.SeparatorList
		t.Shard = tl.Shard
		switch {
		case (tl.HTML == "") == (tl.XML == ""):
			t.invalid = errors.New("exactly one of html or xml is required")
		case tl.HTML != "":
			t.Mode, t.Doc = "html", tl.HTML
		default:
			t.Mode, t.Doc = "xml", tl.XML
		}
		return t, nil
	}
}

// readLine reads up to the next newline into the source's reused line
// buffer; the result is valid until the next call. When the line's content
// exceeds maxLine it is drained and reported with tooLong=true so the stream
// can continue at the following line.
func (s *NDJSONSource) readLine() (line []byte, tooLong bool, err error) {
	buf := s.line[:0]
	for {
		frag, err := s.r.ReadSlice('\n')
		// Room for the content plus a "\r\n" terminator; the exact
		// content length is checked once the line is complete.
		if !tooLong && len(buf)+len(frag) <= s.maxLine+2 {
			buf = append(buf, frag...)
		} else {
			tooLong = true
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		s.line = buf[:0]
		if tooLong || len(trimEOL(buf)) > s.maxLine {
			return nil, true, err
		}
		return buf, false, err
	}
}

// trimEOL strips a trailing "\n" or "\r\n" line terminator.
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	return line
}

// DirSource yields one task per document file in dir (non-recursive), sorted
// by name so sequence assignment is stable. Files ending in .xml are parsed
// with XML semantics; everything else (.html, .htm, ...) as HTML. The file
// name becomes the task ID; the constructor's ontology and shard apply to
// every task (per-document shards need NDJSON input). Each file is read
// into a recycled buffer, under the same ownership rule as NDJSONSource.
type DirSource struct {
	dir      string
	files    []string
	i        int
	seq      int
	ontology string
	shard    string
}

// NewDirSource lists dir's regular files. ontologySrc and shard are applied
// to every task (the CLI's -ontology / -shard flags).
func NewDirSource(dir, ontologySrc, shard string) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	return &DirSource{dir: dir, files: files, ontology: ontologySrc, shard: shard}, nil
}

// Next returns the next file's task or io.EOF.
func (s *DirSource) Next() (*Task, error) {
	if s.i >= len(s.files) {
		return nil, io.EOF
	}
	name := s.files[s.i]
	s.i++
	t := &Task{Seq: s.seq, ID: name, Ontology: s.ontology, Shard: s.shard}
	s.seq++
	buf, err := readDocFile(filepath.Join(s.dir, name))
	if err != nil {
		t.invalid = err
		return t, nil
	}
	t.docBuf = buf
	t.Doc = docView(*buf)
	t.Mode = "html"
	if strings.EqualFold(filepath.Ext(name), ".xml") {
		t.Mode = "xml"
	}
	return t, nil
}

// readDocFile reads the named file into a recycled buffer, as os.ReadFile
// reads it into a fresh one.
func readDocFile(name string) (*[]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := 0
	if info, err := f.Stat(); err == nil && int64(int(info.Size())) == info.Size() {
		size = int(info.Size())
	}
	// One spare byte lets the read that reports EOF land without growing
	// the buffer.
	p := getDocBuf(size + 1)
	b := (*p)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := f.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*p = b
			if errors.Is(err, io.EOF) {
				return p, nil
			}
			PutDocBuf(p)
			return nil, err
		}
	}
}

// SliceSource yields pre-built tasks — the programmatic entry point used by
// tests and embedders. Seq fields are (re)assigned densely in order.
type SliceSource struct {
	tasks []*Task
	i     int
}

// NewSliceSource copies the slice and assigns sequence numbers.
func NewSliceSource(tasks []*Task) *SliceSource {
	out := make([]*Task, len(tasks))
	for i, t := range tasks {
		c := *t
		c.Seq = i
		out[i] = &c
	}
	return &SliceSource{tasks: out}
}

// Next returns the next task or io.EOF.
func (s *SliceSource) Next() (*Task, error) {
	if s.i >= len(s.tasks) {
		return nil, io.EOF
	}
	t := s.tasks[s.i]
	s.i++
	return t, nil
}
