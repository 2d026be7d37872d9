package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one document or request share a
// trace id; a root span has parent 0.
type span struct {
	trace      int64
	id, parent int64
	name       string
	start, end int64 // nanoseconds since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced phases pass nil.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now returns the recorder's clock; zero when r is nil.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// newID reserves a span id, so a parent can hand its id to children that
// finish before it does.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add files a finished span under a reserved id.
func (r *recorder) add(trace, id, parent int64, name string, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{trace: trace, id: id, parent: parent, name: name, start: start, end: end})
	r.mu.Unlock()
}

// record files a span that started at start and ends now, returning its id.
func (r *recorder) record(trace, parent int64, name string, start int64) int64 {
	if r == nil {
		return 0
	}
	id := r.newID()
	r.add(trace, id, parent, name, start, r.now())
	return id
}

// selfTimes returns, per span name, the summed self time in nanoseconds —
// each span's duration minus the part of its interval its children cover —
// and the number of spans.
func (r *recorder) selfTimes() (self map[string]float64, count map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self = make(map[string]float64)
	count = make(map[string]int)
	for _, s := range r.spans {
		self[s.name] += float64(s.end-s.start) - float64(covered(s.start, s.end, children[s.id]))
		count[s.name]++
	}
	return self, count
}

// covered returns how much of [start, end) the union of ivs overlaps.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], start), min(iv[1], end)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// writeTSV writes every span, one per line: trace, id, parent, name,
// start_ns, end_ns.
func (r *recorder) writeTSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tid\tparent\tname\tstart_ns\tend_ns")
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.trace, s.id, s.parent, s.name, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
