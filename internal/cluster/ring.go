package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// ringVnodes is the number of virtual nodes each peer contributes to the
// hash ring. 128 points per peer keeps the key-space share of any peer
// within a few percent of fair for small clusters while the ring stays tiny
// (a 16-peer ring is 2048 points, one binary search per lookup).
const ringVnodes = 128

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// peer index.
type ringPoint struct {
	hash uint64
	peer int
}

// ring is an immutable consistent-hash ring over the configured peers.
// Suspicion does not rebuild the ring — lookups simply skip suspect peers
// (Router.SetSuspect) — so a peer that comes back owns exactly the key range it had before, and
// the caches it warmed stay valid.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // number of distinct peers
}

// newRing hashes every peer name into ringVnodes points. Peer names must be
// unique (NewRouter validates this); the name, not the slice position, owns
// the ring share, so reordering the peer list does not reshuffle keys.
func newRing(names []string) *ring {
	points := make([]ringPoint, 0, len(names)*ringVnodes)
	for i, name := range names {
		for v := 0; v < ringVnodes; v++ {
			sum := sha256.Sum256([]byte(name + "#" + strconv.Itoa(v)))
			points = append(points, ringPoint{
				hash: binary.BigEndian.Uint64(sum[:8]),
				peer: i,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].peer < points[j].peer
	})
	return &ring{points: points, n: len(names)}
}

// order returns every peer index in the key's ring preference order: the
// owner of the first point at or after the key's position, then the next
// distinct peers walking clockwise. The full order — not just the primary —
// is what rerouting and hedging consume: entry 0 is the affinity target,
// entry 1 the natural stand-in, and so on.
func (r *ring) order(key [sha256.Size]byte) []int {
	h := binary.BigEndian.Uint64(key[:8])
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
