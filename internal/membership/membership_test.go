package membership

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// memTransport delivers gossip in-process: addr → node, with per-address
// kill switches standing in for partitions and crashed processes.
type memTransport struct {
	mu    sync.Mutex
	nodes map[string]*Node
	down  map[string]bool
}

func newMemTransport() *memTransport {
	return &memTransport{nodes: make(map[string]*Node), down: make(map[string]bool)}
}

func (mt *memTransport) register(addr string, n *Node) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.nodes[addr] = n
	mt.down[addr] = false
}

func (mt *memTransport) setDown(addr string, down bool) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.down[addr] = down
}

func (mt *memTransport) Gossip(_ context.Context, addr string, msg Message) (Message, error) {
	mt.mu.Lock()
	n, ok := mt.nodes[addr]
	down := mt.down[addr]
	mt.mu.Unlock()
	if !ok || down {
		return Message{}, errors.New("unreachable")
	}
	return n.ReceiveGossip(msg), nil
}

// fleetNode is one test node plus its chaos hooks.
type fleetNode struct {
	node   *Node
	faults *faultinject.Set
}

// startFleet boots n nodes on one memTransport, node-0 acting as the seed,
// and waits for the views to converge.
func startFleet(t *testing.T, mt *memTransport, n int, interval time.Duration) []*fleetNode {
	t.Helper()
	fleet := make([]*fleetNode, n)
	for i := 0; i < n; i++ {
		fleet[i] = startNode(t, mt, i, interval, nil)
	}
	for i := 1; i < n; i++ {
		if err := fleet[i].node.Join(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, fleet, n)
	return fleet
}

func startNode(t *testing.T, mt *memTransport, i int, interval time.Duration, onChange func([]Member)) *fleetNode {
	t.Helper()
	faults := faultinject.New()
	var seeds []string
	if i > 0 {
		seeds = []string{"addr-0"}
	}
	node, err := New(Config{
		Name:      fmt.Sprintf("node-%d", i),
		Addr:      fmt.Sprintf("addr-%d", i),
		Seeds:     seeds,
		Interval:  interval,
		Transport: mt,
		OnChange:  onChange,
		Metrics:   obs.NewRegistry(),
		Faults:    faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	mt.register(fmt.Sprintf("addr-%d", i), node)
	return &fleetNode{node: node, faults: faults}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitConverged waits until every node serves the same n members and the
// view digests agree.
func waitConverged(t *testing.T, fleet []*fleetNode, n int) {
	t.Helper()
	waitUntil(t, 5*time.Second, fmt.Sprintf("%d-node convergence", n), func() bool {
		d := fleet[0].node.Digest()
		for _, f := range fleet {
			if len(f.node.Serving()) != n || f.node.Digest() != d {
				return false
			}
		}
		return true
	})
}

func TestJoinConvergesAndDigestsAgree(t *testing.T) {
	mt := newMemTransport()
	fleet := startFleet(t, mt, 3, 5*time.Millisecond)
	for _, f := range fleet {
		serving := f.node.Serving()
		if len(serving) != 3 {
			t.Fatalf("%s serves %d members, want 3", f.node.cfg.Name, len(serving))
		}
		for _, m := range serving {
			if m.State != Alive {
				t.Errorf("%s sees %s as %s, want alive", f.node.cfg.Name, m.Name, m.State)
			}
		}
	}
}

func TestJoinFailsWhenNoSeedReachable(t *testing.T) {
	mt := newMemTransport()
	node, err := New(Config{
		Name: "n", Addr: "a", Seeds: []string{"nowhere"},
		Interval: 5 * time.Millisecond, Transport: mt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Join(context.Background()); err == nil {
		t.Fatal("Join with only unreachable seeds should fail")
	}
}

// TestHeartbeatLossSuspectsWithoutEjection is the acceptance contract for
// the membership/heartbeat hook: dropped heartbeats drive Alive→Suspect,
// the suspected node refutes with an incarnation bump once gossip resumes,
// and the serving set never shrinks — no ejection flapping.
func TestHeartbeatLossSuspectsWithoutEjection(t *testing.T) {
	mt := newMemTransport()
	var mu sync.Mutex
	var servingSizes []int
	onChange := func(ms []Member) {
		mu.Lock()
		servingSizes = append(servingSizes, len(ms))
		mu.Unlock()
	}
	interval := 5 * time.Millisecond
	a := startNode(t, mt, 0, interval, onChange)
	b := startNode(t, mt, 1, interval, nil)
	if err := b.node.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*fleetNode{a, b}, 2)

	// Drop both directions for a bounded burst — long enough to cross
	// SuspectAfter (3 intervals), far short of DeadAfter (10).
	a.faults.Inject(FaultHeartbeat, faultinject.Fault{Err: errors.New("partitioned"), Times: 5})
	b.faults.Inject(FaultHeartbeat, faultinject.Fault{Err: errors.New("partitioned"), Times: 5})

	sawSuspect := func() bool {
		for _, m := range a.node.Members() {
			if m.Name == "node-1" && m.State == Suspect {
				return true
			}
		}
		return false
	}
	waitUntil(t, 5*time.Second, "node-1 to be suspected", sawSuspect)

	// Once the burst is spent, gossip resumes: node-1 learns it is
	// suspected and refutes. Everyone must end Alive at a bumped
	// incarnation, with no Dead transition in between.
	waitUntil(t, 5*time.Second, "refutation to clear the suspicion", func() bool {
		for _, m := range a.node.Members() {
			if m.Name == "node-1" {
				return m.State == Alive && m.Incarnation > 1
			}
		}
		return false
	})
	if got := b.faults.Fired(FaultHeartbeat); got < 5 {
		t.Fatalf("membership/heartbeat fired %d times on node-1, want >= 5", got)
	}
	for _, m := range a.node.Members() {
		if m.State == Dead || m.State == Left {
			t.Fatalf("%s ended %s; a refuted suspicion must not kill", m.Name, m.State)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, n := range servingSizes {
		if n < 2 {
			t.Fatalf("serving set shrank to %d during suspicion; suspects must keep serving", n)
		}
	}
}

// TestOnChangeFiresOnSuspicionAndRefutation: the router routes around
// Suspect members, so OnChange must deliver Alive→Suspect and the refuting
// Suspect→Alive even though the serving set's names never change.
func TestOnChangeFiresOnSuspicionAndRefutation(t *testing.T) {
	mt := newMemTransport()
	var mu sync.Mutex
	var states []State // node-1's state per delivery, consecutive repeats folded
	onChange := func(ms []Member) {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range ms {
			if m.Name == "node-1" && (len(states) == 0 || states[len(states)-1] != m.State) {
				states = append(states, m.State)
			}
		}
	}
	interval := 5 * time.Millisecond
	a := startNode(t, mt, 0, interval, onChange)
	b := startNode(t, mt, 1, interval, nil)
	if err := b.node.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*fleetNode{a, b}, 2)

	a.faults.Inject(FaultHeartbeat, faultinject.Fault{Err: errors.New("partitioned"), Times: 5})
	b.faults.Inject(FaultHeartbeat, faultinject.Fault{Err: errors.New("partitioned"), Times: 5})
	waitUntil(t, 5*time.Second, "OnChange to deliver node-1 alive, suspect, then alive again", func() bool {
		mu.Lock()
		defer mu.Unlock()
		want := []State{Alive, Suspect, Alive}
		for i := 0; i+len(want) <= len(states); i++ {
			if states[i] == want[0] && states[i+1] == want[1] && states[i+2] == want[2] {
				return true
			}
		}
		return false
	})
}

// TestHardKillDetectsDeadThenRejoinRefutes: a crashed node is detected
// Suspect→Dead and drops from the serving set; its restart (same name,
// fresh incarnation 1) refutes the stale Dead record during Join and
// rejoins the serving set.
func TestHardKillDetectsDeadThenRejoinRefutes(t *testing.T) {
	mt := newMemTransport()
	interval := 5 * time.Millisecond
	a := startNode(t, mt, 0, interval, nil)
	b := startNode(t, mt, 1, interval, nil)
	if err := b.node.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*fleetNode{a, b}, 2)

	// Hard kill: the process is gone, the address black-holed.
	b.node.Close()
	mt.setDown("addr-1", true)
	waitUntil(t, 5*time.Second, "node-1 to be declared dead", func() bool {
		for _, m := range a.node.Members() {
			if m.Name == "node-1" {
				return m.State == Dead
			}
		}
		return false
	})
	if got := len(a.node.Serving()); got != 1 {
		t.Fatalf("serving set has %d members after death, want 1", got)
	}

	// Restart under the same name: Join must discover the stale Dead
	// record, refute past it, and re-enter the serving set.
	b2 := startNode(t, mt, 1, interval, nil)
	if err := b2.node.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "restarted node-1 to rejoin", func() bool {
		for _, m := range a.node.Members() {
			if m.Name == "node-1" {
				return m.State == Alive
			}
		}
		return false
	})
	var inc uint64
	for _, m := range a.node.Members() {
		if m.Name == "node-1" {
			inc = m.Incarnation
		}
	}
	if inc < 2 {
		t.Fatalf("rejoined node-1 has incarnation %d, want a refutation bump past the dead record", inc)
	}
}

func TestGracefulLeaveDropsFromServing(t *testing.T) {
	mt := newMemTransport()
	interval := 5 * time.Millisecond
	fleet := startFleet(t, mt, 3, interval)

	fleet[2].node.Leave(context.Background())
	fleet[2].node.Close()
	mt.setDown("addr-2", true)

	waitUntil(t, 5*time.Second, "leavers to drop from serving sets", func() bool {
		return len(fleet[0].node.Serving()) == 2 && len(fleet[1].node.Serving()) == 2
	})
	for _, m := range fleet[0].node.Members() {
		if m.Name == "node-2" && m.State != Left {
			t.Fatalf("node-2 recorded as %s, want left", m.State)
		}
	}
}

func TestOnChangeDeliversSortedServingSet(t *testing.T) {
	mt := newMemTransport()
	var mu sync.Mutex
	var last []Member
	onChange := func(ms []Member) {
		mu.Lock()
		last = ms
		mu.Unlock()
	}
	interval := 5 * time.Millisecond
	a := startNode(t, mt, 0, interval, onChange)
	b := startNode(t, mt, 1, interval, nil)
	if err := b.node.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*fleetNode{a, b}, 2)
	waitUntil(t, 5*time.Second, "OnChange to observe the join", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(last) == 2 && last[0].Name == "node-0" && last[1].Name == "node-1"
	})
}

func TestNewValidatesConfig(t *testing.T) {
	mt := newMemTransport()
	for _, cfg := range []Config{
		{Addr: "a", Transport: mt},
		{Name: "n", Transport: mt},
		{Name: "n", Addr: "a"},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) should fail validation", cfg)
		}
	}
}

// stallTransport is a memTransport whose stalled addresses never answer: a
// gossip to one blocks until its context ends, as a SIGSTOPped process
// holds a TCP exchange open.
type stallTransport struct {
	*memTransport
	mu      sync.Mutex
	stalled map[string]bool
}

func (st *stallTransport) stall(addr string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.stalled[addr] = true
}

func (st *stallTransport) Gossip(ctx context.Context, addr string, msg Message) (Message, error) {
	st.mu.Lock()
	stalled := st.stalled[addr]
	st.mu.Unlock()
	if stalled {
		<-ctx.Done()
		return Message{}, ctx.Err()
	}
	return st.memTransport.Gossip(ctx, addr, msg)
}

// TestStalledMemberDelaysNoRound: one stalled member holds only its own
// heartbeat exchange. Each exchange may take requestTimeout (2 s here,
// twenty intervals), yet the healthy members keep hearing from each other
// every interval — neither ever turns Suspect — while the stalled member is
// suspected on schedule.
func TestStalledMemberDelaysNoRound(t *testing.T) {
	st := &stallTransport{memTransport: newMemTransport(), stalled: make(map[string]bool)}
	interval := 100 * time.Millisecond
	fleet := make([]*fleetNode, 3)
	for i := range fleet {
		faults := faultinject.New()
		var seeds []string
		if i > 0 {
			seeds = []string{"addr-0"}
		}
		node, err := New(Config{
			Name: fmt.Sprintf("node-%d", i), Addr: fmt.Sprintf("addr-%d", i), Seeds: seeds,
			Interval: interval, Transport: st, Metrics: obs.NewRegistry(), Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		st.register(fmt.Sprintf("addr-%d", i), node)
		fleet[i] = &fleetNode{node: node, faults: faults}
	}
	for _, f := range fleet[1:] {
		if err := f.node.Join(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, fleet, 3)
	if rt := fleet[0].node.requestTimeout(); rt < 10*interval {
		t.Fatalf("requestTimeout %v is too short to tell a stalled exchange from a failed one", rt)
	}

	// node-2 stops: it sends nothing, and exchanges to it hang.
	fleet[2].node.Close()
	st.stall("addr-2")
	start := time.Now()
	state := func(of *fleetNode, name string) State {
		for _, m := range of.node.Members() {
			if m.Name == name {
				return m.State
			}
		}
		return Left
	}
	suspectedAfter := time.Duration(0)
	for time.Since(start) < 3*time.Second {
		for i, f := range fleet[:2] {
			other := fmt.Sprintf("node-%d", 1-i)
			if s := state(f, other); s != Alive {
				t.Fatalf("node-%d saw healthy %s turn %s %v after node-2 stalled", i, other, s, time.Since(start))
			}
		}
		if suspectedAfter == 0 && state(fleet[0], "node-2") != Alive {
			suspectedAfter = time.Since(start)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// SuspectAfter is three intervals; a detector stalled behind node-2's
	// exchange would need its full 2 s.
	if suspectedAfter == 0 || suspectedAfter > 10*interval {
		t.Fatalf("node-0 suspected the stalled node-2 after %v, want within %v", suspectedAfter, 10*interval)
	}
}
