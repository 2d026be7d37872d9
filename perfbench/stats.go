package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Windows: a phase's completed operations are cut, at whole passes or
// periods of the workload's input, into windows, and a phase reports the
// median over windows of each window's figure, so a stretch of
// interference from outside the benchmark moves a few windows, not the
// result. Throughput and the median latency come from windows of at least
// minWindowTime; the 99th percentile from windows that also hold at least
// minTailOps operations, which leaves ten samples beyond it.
const (
	minWindowTime = 250 * time.Millisecond
	minTailOps    = 1000
)

// sample is one completed operation.
type sample struct {
	done  time.Time
	lat   time.Duration
	bytes int
}

// phase is what one measured phase observed.
type phase struct {
	start     time.Time
	elapsed   time.Duration
	period    int // operations in one pass or period of the input
	attempted int
	failed    int
	samples   []sample // completed operations, in completion order

	allocBytes uint64
	numGC      uint32
	gcCPU      float64 // GC CPU seconds
	totalCPU   float64 // all CPU seconds of the process
}

// runtimeSnapshot reads the allocation, GC and CPU counters that a phase
// reports as deltas.
type runtimeSnapshot struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
	totalCPU   float64
}

func snapshotRuntime() runtimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return runtimeSnapshot{
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
	}
}

// since fills p's runtime deltas from the snapshot taken at the phase's
// start.
func (p *phase) since(s runtimeSnapshot) {
	e := snapshotRuntime()
	p.allocBytes = e.totalAlloc - s.totalAlloc
	p.numGC = e.numGC - s.numGC
	p.gcCPU = e.gcCPU - s.gcCPU
	p.totalCPU = e.totalCPU - s.totalCPU
}

func (p *phase) completed() int { return len(p.samples) }

// window summarizes a run of consecutive operations.
type window struct {
	mbs      float64 // input megabytes per second
	p50, p99 time.Duration
	n        int
}

// windows cuts the phase's operations into windows of at least minOps
// operations and minWindowTime.
func (p *phase) windows(minOps int) []window {
	n := len(p.samples)
	if n == 0 {
		return nil
	}
	var cuts [][2]int
	from, begin := 0, p.start
	for end := p.period; ; end += p.period {
		end = min(end, n)
		if end-from >= minOps && p.samples[end-1].done.Sub(begin) >= minWindowTime {
			cuts = append(cuts, [2]int{from, end})
			from, begin = end, p.samples[end-1].done
		}
		if end == n {
			break
		}
	}
	switch {
	case len(cuts) == 0:
		cuts = append(cuts, [2]int{0, n})
	case from < n:
		// A short tail joins the window before it.
		cuts[len(cuts)-1][1] = n
	}
	out := make([]window, len(cuts))
	for i, c := range cuts {
		begin := p.start
		if c[0] > 0 {
			begin = p.samples[c[0]-1].done
		}
		out[i] = summarize(p.samples[c[0]:c[1]], p.samples[c[1]-1].done.Sub(begin))
	}
	return out
}

func summarize(ss []sample, span time.Duration) window {
	lats := make([]time.Duration, len(ss))
	var bytes int
	for i, s := range ss {
		lats[i] = s.lat
		bytes += s.bytes
	}
	return window{
		mbs: float64(bytes) / 1e6 / span.Seconds(),
		p50: quantile(lats, 0.50),
		p99: quantile(lats, 0.99),
		n:   len(ss),
	}
}

// summary is a phase's windowed result: the median over windows of each
// window figure.
type summary struct {
	mbs, p50ms, p99ms    float64
	windows, tailWindows int
}

func (p *phase) summary() summary {
	var mbs, p50, p99 []float64
	ws := p.windows(1)
	for _, w := range ws {
		mbs = append(mbs, w.mbs)
		p50 = append(p50, ms(w.p50))
	}
	tail := p.windows(minTailOps)
	for _, w := range tail {
		p99 = append(p99, ms(w.p99))
	}
	return summary{mbs: median(mbs), p50ms: median(p50), p99ms: median(p99), windows: len(ws), tailWindows: len(tail)}
}

// quantile returns the q-quantile of ds by the nearest-rank rule; it
// sorts ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(q*float64(len(ds)) + 0.5)
	k = min(max(k, 1), len(ds))
	return ds[k-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
