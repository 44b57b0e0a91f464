// Package cluster is the scale-out serving tier over a fleet of aovlisd
// node processes (ISSUE 8): a consistent-hash router that places channels
// on nodes, forwards NDJSON observe streams with connection pooling, moves
// channels between nodes live (drain → export → import → flip) and fails
// dead nodes over onto survivors from their last shared-directory
// checkpoint.
//
// The placement substrate is a bounded-load consistent-hash ring: every
// node contributes replicas virtual points on a 64-bit hash circle, a
// channel hashes to a circle position, and ownership is the first virtual
// point clockwise whose node is still under the load bound
// ceil(loadFactor·channels/nodes). Consistent hashing keeps placement
// stable under node churn (only the failed node's channels move); the load
// bound keeps the distribution within loadFactor of perfectly even instead
// of the ~25% spread plain consistent hashing gives; virtual points keep
// the bound from degrading into round-robin.
//
// The ring itself is immutable — topology changes build a new ring — so
// the router's hot path reads it with one atomic pointer load. Placement
// is deterministic: the same node set, the same channel id and the same
// load state always yield the same owner, and a full placement pass over a
// sorted channel set (PlaceAll) is a pure function of (nodes, channels),
// which is what makes failover placement reproducible across router
// restarts.
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// DefaultReplicas is the virtual-point count per node. 128 points per node
// keeps the per-node share of the circle within a few percent of even for
// small fleets while the ring stays a few KB.
const DefaultReplicas = 128

// DefaultLoadFactor bounds any node's channel count at 1.25× the fleet
// mean (Google's canonical bounded-load setting: small enough to matter,
// large enough that the clockwise walk almost never passes a node).
const DefaultLoadFactor = 1.25

// vpoint is one virtual node: a position on the hash circle and the index
// of the node that owns it.
type vpoint struct {
	hash uint64
	node int32
}

// Ring is an immutable bounded-load consistent-hash ring over a set of
// node names. Build one with NewRing; lookups are read-only and safe for
// concurrent use.
type Ring struct {
	nodes      []string // sorted, unique
	points     []vpoint // sorted by hash
	loadFactor float64
}

// NewRing builds a ring over the given node names. replicas ≤ 0 and
// loadFactor < 1 select the defaults. Node names must be non-empty and
// unique; order does not matter (the ring sorts them, so equal node SETS
// build identical rings).
func NewRing(nodes []string, replicas int, loadFactor float64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if loadFactor < 1 {
		loadFactor = DefaultLoadFactor
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n)
		}
	}
	r := &Ring{nodes: sorted, loadFactor: loadFactor,
		points: make([]vpoint, 0, len(sorted)*replicas)}
	for ni, name := range sorted {
		h := fnv64(name)
		for v := 0; v < replicas; v++ {
			// Derive each virtual point from the node hash and the replica
			// index with an integer mix — no per-point string building.
			r.points = append(r.points, vpoint{hash: mix64(h + uint64(v)), node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// Nodes returns the ring's node names, sorted. The slice is shared — do
// not mutate.
func (r *Ring) Nodes() []string { return r.nodes }

// fnv64 is FNV-1a over a string, inlined so the hot path hashes a channel
// id with zero allocations.
func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 is a splitmix64 finalisation round: it decorrelates the virtual
// point hashes derived from sequential replica indices.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// search returns the index of the first virtual point at or clockwise of
// hash h (wrapping past the end).
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		return 0
	}
	return lo
}

// Owner returns the plain (load-blind) consistent-hash owner of channel
// id: the node of the first virtual point clockwise of the id's hash.
// Zero allocations.
func (r *Ring) Owner(id string) string {
	return r.nodes[r.points[r.search(fnv64(id))].node]
}

// MaxLoad returns the per-node channel cap for a fleet already holding
// placed channels when one more is placed: ceil(loadFactor·(placed+1)/n).
// Every node is always allowed at least one channel.
func (r *Ring) MaxLoad(placed int) int {
	c := int(math.Ceil(r.loadFactor * float64(placed+1) / float64(len(r.nodes))))
	if c < 1 {
		c = 1
	}
	return c
}

// Place returns the bounded-load owner for channel id given the current
// per-node loads: the first node clockwise of the id's position whose load
// is under MaxLoad(placed). load is indexed like Nodes(); placed is the
// total number of channels already placed. Zero allocations.
//
// Placement is deterministic in (ring, id, load state). Callers placing
// many channels at once should feed them in sorted order (PlaceAll) so the
// outcome is independent of arrival order.
func (r *Ring) Place(id string, load []int, placed int) (string, error) {
	if len(load) != len(r.nodes) {
		return "", fmt.Errorf("cluster: load vector has %d entries for %d nodes", len(load), len(r.nodes))
	}
	cap_ := r.MaxLoad(placed)
	start := r.search(fnv64(id))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if load[p.node] < cap_ {
			return r.nodes[p.node], nil
		}
	}
	// Unreachable while cap ≥ ceil(total/n): some node must be under it.
	return "", fmt.Errorf("cluster: no node under load bound %d for %d placed channels", cap_, placed)
}

// PlaceAll computes the canonical placement of a channel set: ids are
// placed in sorted order through the bounded-load rule, so the result is a
// pure function of (ring, channel set). Used for full rebalances and for
// failover re-placement.
func (r *Ring) PlaceAll(ids []string) (map[string]string, error) {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	load := make([]int, len(r.nodes))
	out := make(map[string]string, len(sorted))
	idx := make(map[string]int, len(r.nodes))
	for i, n := range r.nodes {
		idx[n] = i
	}
	for i, id := range sorted {
		n, err := r.Place(id, load, i)
		if err != nil {
			return nil, err
		}
		out[id] = n
		load[idx[n]]++
	}
	return out, nil
}
