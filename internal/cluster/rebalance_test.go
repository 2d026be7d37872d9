package cluster

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// ownerName resolves a key's primary owner to its peer name.
func ownerName(r *ring, names []string, key [sha256.Size]byte) string {
	return names[r.order(key)[0]]
}

// testKeys derives k deterministic ring keys.
func testKeys(k int) [][sha256.Size]byte {
	keys := make([][sha256.Size]byte, k)
	for i := range keys {
		keys[i] = sha256.Sum256([]byte("key-" + strconv.Itoa(i)))
	}
	return keys
}

// peerNames builds n names peer-0..peer-n-1.
func peerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "peer-" + strconv.Itoa(i)
	}
	return names
}

// TestRingRebalanceIsIncremental is the rebalancing-math contract: adding or
// removing one peer moves only the key fraction owned by the moved vnodes —
// about 1/(n+1) on add and 1/n on remove — never a full reshuffle, and on
// removal every moved key belonged to the removed peer.
func TestRingRebalanceIsIncremental(t *testing.T) {
	const keyCount = 4000
	keys := testKeys(keyCount)
	for _, n := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("add-to-%d", n), func(t *testing.T) {
			before, after := peerNames(n), peerNames(n+1)
			rb, ra := newRing(before), newRing(after)
			moved := 0
			for _, key := range keys {
				ob, oa := ownerName(rb, before, key), ownerName(ra, after, key)
				if ob == oa {
					continue
				}
				moved++
				if oa != "peer-"+strconv.Itoa(n) {
					t.Fatalf("key moved from %s to %s; only the new peer may gain keys on add", ob, oa)
				}
			}
			ideal := float64(keyCount) / float64(n+1)
			if f := float64(moved); f < 0.5*ideal || f > 2*ideal {
				t.Errorf("add to %d peers moved %d/%d keys, want near the ideal %.0f (1/(n+1))",
					n, moved, keyCount, ideal)
			}
		})
		t.Run(fmt.Sprintf("remove-from-%d", n+1), func(t *testing.T) {
			before, after := peerNames(n+1), peerNames(n)
			rb, ra := newRing(before), newRing(after)
			removed := "peer-" + strconv.Itoa(n)
			moved := 0
			for _, key := range keys {
				ob, oa := ownerName(rb, before, key), ownerName(ra, after, key)
				if ob == oa {
					continue
				}
				moved++
				if ob != removed {
					t.Fatalf("key moved from %s to %s; only the removed peer's keys may move", ob, oa)
				}
			}
			ideal := float64(keyCount) / float64(n+1)
			if f := float64(moved); f < 0.5*ideal || f > 2*ideal {
				t.Errorf("remove from %d peers moved %d/%d keys, want near the ideal %.0f (1/n)",
					n+1, moved, keyCount, ideal)
			}
		})
	}
}

// TestRingChurnEveryKeyHasExactlyOneOwner is the churn property test: across
// an arbitrary join/leave sequence, every key always resolves to exactly one
// owner drawn from the current member set, deterministically.
func TestRingChurnEveryKeyHasExactlyOneOwner(t *testing.T) {
	keys := testKeys(500)
	members := peerNames(3)
	steps := []struct {
		op   string
		name string
	}{
		{"add", "joiner-a"},
		{"add", "joiner-b"},
		{"remove", "peer-1"},
		{"remove", "joiner-a"},
		{"add", "peer-1"}, // a rejoin
		{"remove", "peer-0"},
	}
	apply := func(cur []string, op, name string) []string {
		if op == "add" {
			return append(append([]string(nil), cur...), name)
		}
		out := cur[:0:0]
		for _, m := range cur {
			if m != name {
				out = append(out, m)
			}
		}
		return out
	}
	for step := -1; step < len(steps); step++ {
		if step >= 0 {
			members = apply(members, steps[step].op, steps[step].name)
		}
		r := newRing(members)
		valid := make(map[string]bool, len(members))
		for _, m := range members {
			valid[m] = true
		}
		for _, key := range keys {
			order := r.order(key)
			if len(order) != len(members) {
				t.Fatalf("step %d: order covers %d peers, want %d", step, len(order), len(members))
			}
			owner := members[order[0]]
			if !valid[owner] {
				t.Fatalf("step %d: key owned by departed member %s", step, owner)
			}
			if again := members[r.order(key)[0]]; again != owner {
				t.Fatalf("step %d: ownership not deterministic: %s then %s", step, owner, again)
			}
		}
	}
}

// TestRouterDynamicMembership drives AddPeer/RemovePeer on a live router:
// requests keep answering 200 around every change, a rejoining peer with a
// changed address replaces the old record, and removal of an unknown peer
// reports false.
func TestRouterDynamicMembership(t *testing.T) {
	r, _ := newTestRouter(t, 2, nil)
	body := discoverBody("")
	check := func(stage string) {
		t.Helper()
		if w := postRouter(t, r, "/v1/discover", body); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", stage, w.Code, w.Body.String())
		}
	}
	check("initial 2 peers")

	if err := r.AddPeer(localPeer("p2", newNode(t, httpapi.Config{CacheSize: 64}))); err != nil {
		t.Fatal(err)
	}
	if got := len(r.PeerNames()); got != 3 {
		t.Fatalf("after add: %d peers, want 3", got)
	}
	check("after join")

	// Rejoin under the same name: the new handler replaces the old peer
	// without growing the set.
	if err := r.AddPeer(localPeer("p2", newNode(t, httpapi.Config{CacheSize: 64}))); err != nil {
		t.Fatal(err)
	}
	if got := len(r.PeerNames()); got != 3 {
		t.Fatalf("after rejoin: %d peers, want 3", got)
	}
	check("after rejoin")

	if !r.RemovePeer("p2") {
		t.Fatal("RemovePeer(p2) reported absent")
	}
	if r.RemovePeer("p2") {
		t.Fatal("second RemovePeer(p2) reported present")
	}
	if got := len(r.PeerNames()); got != 2 {
		t.Fatalf("after remove: %d peers, want 2", got)
	}
	check("after leave")
}

// blockingPeer is a fake Peer whose Do announces itself on entered and then
// blocks until release is closed, so a test can hold an attempt in flight
// across a membership change instead of hoping the scheduler lands one there.
type blockingPeer struct {
	name    string
	entered chan struct{}
	release chan struct{}
}

func newBlockingPeer(name string) *blockingPeer {
	return &blockingPeer{name: name, entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (p *blockingPeer) Name() string { return p.name }

func (p *blockingPeer) Do(context.Context, []byte) (int, []byte, error) {
	p.entered <- struct{}{}
	<-p.release
	return http.StatusOK, []byte(`{}`), nil
}

func (p *blockingPeer) ScrapeMetrics(context.Context) ([]byte, error) { return nil, nil }

// TestQueueGaugeSurvivesPeerReplacement forces the interleaving that gossip's
// rejoin on a new address produces: an attempt on a peer's old record is
// still in flight when AddPeer replaces the record under the same name and
// an attempt on the new record starts. The old attempt finishing must
// release its own slot without resetting the shared queue-depth gauge while
// the new record is busy, and an attempt in flight across RemovePeer still
// answers.
func TestQueueGaugeSurvivesPeerReplacement(t *testing.T) {
	oldPeer, newPeer := newBlockingPeer("p"), newBlockingPeer("p")
	reg := obs.NewRegistry()
	r := newFleet(t, Config{Peers: []Peer{oldPeer}, Metrics: reg}, httpapi.Config{})
	gauge := reg.Gauge("boundary_cluster_peer_queue_depth", "", "peer", "p")
	oldState := r.snapshot().peers[0]

	send := func() <-chan int {
		code := make(chan int, 1)
		go func() { code <- postRouter(t, r, "/v1/discover", discoverBody("")).Code }()
		return code
	}
	oldDone := send()
	<-oldPeer.entered
	if err := r.AddPeer(newPeer); err != nil {
		t.Fatal(err)
	}
	newDone := send()
	<-newPeer.entered

	close(oldPeer.release)
	if code := <-oldDone; code != http.StatusOK {
		t.Fatalf("attempt on the old record answered %d", code)
	}
	if v := gauge.Value(); v != 1 {
		t.Errorf("queue gauge after the old attempt finished = %v, want 1 (the new record's attempt)", v)
	}
	if n := len(oldState.slots); n != 0 {
		t.Errorf("old record still holds %d queue slots, want 0", n)
	}

	if !r.RemovePeer("p") {
		t.Fatal("RemovePeer(p) reported absent")
	}
	close(newPeer.release)
	if code := <-newDone; code != http.StatusOK {
		t.Fatalf("attempt in flight across RemovePeer answered %d", code)
	}
	if v := gauge.Value(); v != 0 {
		t.Errorf("queue gauge after every attempt finished = %v, want 0", v)
	}
}
