// Package faultinject is a test-only fault-injection harness for the
// record-boundary pipeline. Production code carries named hook points —
// cheap nil-receiver no-ops unless a test wires a *Set through
// core.Options.Faults (or httpapi.Config.Faults) — and chaos tests arm those
// points with panics, delays, and forced errors to prove the process
// degrades gracefully instead of crashing, hanging, or leaking goroutines.
//
// Hook-point names are path-like strings owned by the package that fires
// them; the catalog lives in docs/ROBUSTNESS.md. Current points:
//
//	core/parse              before the tag tree is built
//	htmlparse/arena         once per parse, after the one-pass scan,
//	                        normalize and build has written the arena's
//	                        nodes and events and before the per-node
//	                        windows are carved (an armed panic proves a
//	                        mid-parse failure still repools the dirty arena)
//	core/heuristic/<NAME>   inside each heuristic's recover() scope, before
//	                        Rank
//	core/combine            before certainty combination
//	recognizer/chunk        per text chunk scanned by the recognizer
//	httpapi/discover        at the head of every discover (incl. batch docs)
//	pipeline/attempt        before each bulk-engine attempt
//	cluster/route           at the head of every cluster routing decision
//	cluster/peer            before each peer attempt (any peer)
//	cluster/peer/<NAME>     before each attempt on the named peer
//	cluster/hedge           when a hedged second attempt is about to launch
//	                        (an armed error suppresses the hedge)
//	template/lookup         before each wrapper-store lookup (an armed error
//	                        degrades the hit to a miss)
//	journal/compact         between writing a journal's compacted temp file
//	                        and renaming it into place (an armed panic
//	                        simulates a crash mid-compaction)
//	membership/heartbeat    before each outbound gossip heartbeat (an armed
//	                        error drops the heartbeat — a partition as seen
//	                        from both sides)
//
// A Fault can combine a delay with a forced error; Panic takes precedence
// over Err. Delays honor the context passed to FireCtx, so an injected slow
// stage still unblocks promptly when the caller cancels — exactly the
// behavior the cancellation chaos tests need.
package faultinject

import (
	"context"
	"sync"
	"time"
)

// Fault describes what happens when an armed hook point fires.
type Fault struct {
	// Panic, when non-empty, makes the hook point panic with this message.
	Panic string
	// Delay sleeps before returning (interruptible by the FireCtx context).
	Delay time.Duration
	// Err is returned from Fire/FireCtx; hook points that can fail
	// propagate it as if the guarded operation had failed.
	Err error
	// Times limits how many firings consume this fault; 0 means unlimited.
	Times int
}

// Set is a collection of armed faults keyed by hook-point name, plus firing
// counts for every point that was ever reached (armed or not). A nil *Set is
// a valid no-op: Fire returns nil immediately, which is the production
// configuration.
type Set struct {
	mu     sync.Mutex
	faults map[string]*Fault
	fired  map[string]int
}

// New returns an empty, disarmed set.
func New() *Set {
	return &Set{faults: make(map[string]*Fault), fired: make(map[string]int)}
}

// Inject arms (or replaces) the fault at the named hook point.
func (s *Set) Inject(point string, f Fault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults[point] = &f
}

// Remove disarms the named hook point; firing counts are preserved.
func (s *Set) Remove(point string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.faults, point)
}

// Reset disarms every hook point; firing counts are preserved.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = make(map[string]*Fault)
}

// Fired returns how many times the named hook point has been reached —
// whether or not a fault was armed there — making it a cheap probe for "did
// this code path run" assertions in chaos tests.
func (s *Set) Fired(point string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[point]
}

// Fire is FireCtx with a background context (delays are uninterruptible).
func (s *Set) Fire(point string) error {
	return s.FireCtx(context.Background(), point)
}

// FireCtx triggers the named hook point: it records the firing, then applies
// the armed fault, if any — sleeping Delay (cut short by ctx), panicking
// with Panic, or returning Err. With no fault armed it only counts and
// returns nil. A nil receiver does nothing and returns nil.
func (s *Set) FireCtx(ctx context.Context, point string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.fired[point]++
	f := s.faults[point]
	var fault Fault
	if f != nil {
		fault = *f
		if f.Times > 0 {
			f.Times--
			if f.Times == 0 {
				delete(s.faults, point)
			}
		}
	}
	s.mu.Unlock()
	if f == nil {
		return nil
	}

	if fault.Delay > 0 {
		t := time.NewTimer(fault.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if fault.Panic != "" {
		panic("faultinject: " + fault.Panic)
	}
	return fault.Err
}
