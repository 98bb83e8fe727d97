package membership

import (
	"sort"
	"strconv"
)

// ringVnodes is how many virtual nodes each edge contributes to the
// consistent-hash ring. More vnodes smooth the key distribution (the
// per-node share concentrates around 1/n as vnodes grow) at the cost of
// a larger sorted array; 128 keeps a 64-edge ring under 8k entries and
// the balance within the bounds the ring property tests state.
const ringVnodes = 128

// hashRing maps stream keys onto edge nodes with consistent hashing:
// every eligible node owns ringVnodes points on a 64-bit circle, and a
// key belongs to the first point clockwise from its own hash. Redirects
// become computable — an O(log n·v) binary search instead of a
// per-request scan of the node table — and each asset concentrates on
// one edge, so a 16-edge cluster mirrors an asset once instead of
// sixteen times.
//
// A ring is immutable after build; the Table rebuilds it whenever a
// node's eligibility flips. Liveness is NOT baked in: TTL expiry is
// passive and triggers no rebuild, so Pick re-checks the owner and
// falls back to least-loaded when it is not usable.
type hashRing struct {
	hashes []uint64 // sorted vnode positions
	nodes  []*node  // nodes[i] owns hashes[i]
}

// buildRing constructs the ring over the given nodes. A ring over zero
// nodes is valid and matches nothing.
func buildRing(nodes []*node) hashRing {
	type point struct {
		hash uint64
		node *node
	}
	points := make([]point, 0, len(nodes)*ringVnodes)
	for _, n := range nodes {
		for v := 0; v < ringVnodes; v++ {
			points = append(points, point{hash: fnv1a(n.info.ID + "#" + strconv.Itoa(v)), node: n})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash collisions between vnodes are astronomically unlikely but
		// must not make the ring build order-dependent.
		return points[i].node.info.ID < points[j].node.info.ID
	})
	r := hashRing{hashes: make([]uint64, len(points)), nodes: make([]*node, len(points))}
	for i, p := range points {
		r.hashes[i], r.nodes[i] = p.hash, p.node
	}
	return r
}

// pick returns the node owning key: the first vnode clockwise from the
// key's hash, wrapping at the top of the circle. Nil on an empty ring.
// Zero allocations — this is the redirect hot path.
func (r *hashRing) pick(key string) *node {
	if len(r.hashes) == 0 {
		return nil
	}
	h := fnv1a(key)
	// First vnode position >= h; sort.Search is alloc-free.
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.nodes[i]
}

// fnv1a is the 64-bit FNV-1a hash with a murmur-style finalizer,
// inlined over the string so the hot path never allocates a
// hash.Hash64. Raw FNV-1a clusters on short, similar strings (vnode
// labels and asset paths differ in a suffix digit or two), which skews
// ring positions badly; the fmix64 avalanche spreads them over the full
// 64-bit circle.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
