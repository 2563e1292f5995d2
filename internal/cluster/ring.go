// Package cluster scales the uopsimd serving stack horizontally: a
// consistent-hash ring assigns every runcache fingerprint to exactly one
// shard, a probing membership tracks which shards are up, and a gateway
// (cmd/uopgate) routes the daemon's API across the fleet — scattering
// sweeps, merging queries, and spilling to the next ring owner while a
// shard is down. It holds no per-point state: a recovered shard pulls
// spilled results from its peers itself (server.Config.Peers). The point
// of the whole package is to keep the per-node guarantee "every
// unique design point simulates exactly once" true cluster-wide while
// capacity scales linearly with shard count. See DESIGN.md §14.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard. 128 points per node
// keeps the max/mean shard load within ~1.3x for realistic fleet sizes
// (see TestRingBalance) while ring construction stays microseconds-scale.
const DefaultVNodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the shard that owns the arc ending there.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over shard names. Ownership of a key is
// the first virtual node clockwise from the key's hash, so adding or
// removing one shard remaps only the keys in the arcs its virtual nodes
// covered (~1/N of the space) and no key moves between two surviving
// shards. The ring is deterministic — node-set and vnode count fully
// determine every assignment, regardless of insertion order — and
// immutable under concurrent readers: the gateway builds it once from the
// static -nodes list and handles downtime by walking successors, not by
// mutating the ring.
type Ring struct {
	vnodes int
	nodes  []string // sorted, distinct
	points []ringPoint
}

// hash64 positions a label on the circle: the first 8 bytes of its
// SHA-256. Fingerprints are themselves SHA-256 hex, but hashing again
// costs nothing at request scale and keeps arbitrary node names and test
// keys uniformly spread.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over nodes with vnodes virtual nodes each
// (vnodes <= 0 selects DefaultVNodes). Duplicate names collapse.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes}
	for _, n := range nodes {
		r.add(n)
	}
	return r
}

// add inserts a node's virtual nodes. Adding a present node is a no-op.
func (r *Ring) add(node string) {
	i := sort.SearchStrings(r.nodes, node)
	if i < len(r.nodes) && r.nodes[i] == node {
		return
	}
	r.nodes = append(r.nodes, "")
	copy(r.nodes[i+1:], r.nodes[i:])
	r.nodes[i] = node
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: hash64(node + "#" + strconv.Itoa(v)), node: node})
	}
	r.sortPoints()
}

// sortPoints orders the circle by hash, breaking the (astronomically
// unlikely) hash tie by node name so assignments never depend on
// insertion order.
func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Nodes returns the member names, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len is the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// VNodes is the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Points is the total virtual-node count on the circle.
func (r *Ring) Points() int { return len(r.points) }

// Owner names the shard owning key: the first virtual node clockwise from
// the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(hash64(key))].node
}

// Owners walks clockwise from key collecting up to n distinct shards —
// the owner first, then the spill-over order a gateway uses while earlier
// owners are down. n > Len() is truncated to every member.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	i := r.search(hash64(key))
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		cand := r.points[(i+scanned)%len(r.points)].node
		seen := false
		for _, have := range out {
			if have == cand {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, cand)
		}
	}
	return out
}

// search finds the index of the first point with hash >= h, wrapping to 0
// past the top of the circle.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
