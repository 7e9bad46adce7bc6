package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member virtual-node count. 128 points
// per member keeps the expected load imbalance across a handful of
// replicas within a few percent while the whole ring stays a few KiB.
// It is a constant, not a parameter: placement is a deployment contract,
// and every participant must compute the same owners.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring: members (replica base
// URLs) each project DefaultVirtualNodes points onto a 64-bit circle, and a
// key (a graph ID) is owned by the member of the first point at or
// after the key's hash. Construction is deterministic - member order,
// duplicates and process identity do not affect placement.
type Ring struct {
	members []string // sorted, deduplicated
	points  []point  // sorted by (hash, member index, replica index)
}

type point struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over members. Members are deduplicated; an
// empty member set yields a ring whose lookups report no owner.
func NewRing(members []string) *Ring {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, m := range sorted {
		if i > 0 && m == sorted[i-1] {
			continue
		}
		uniq = append(uniq, m)
	}
	r := &Ring{members: append([]string(nil), uniq...)}
	r.points = make([]point, 0, len(r.members)*DefaultVirtualNodes)
	for mi, m := range r.members {
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.points = append(r.points, point{hash: hash64(m + "#" + strconv.Itoa(v)), member: mi})
		}
	}
	// Hash ties (astronomically unlikely, but placement must be a total
	// order) break by member index so the ring is identical everywhere.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the deduplicated, sorted member list.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Owner returns the member owning key, and false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.members[r.points[r.search(key)].member], true
}

// Successors returns every member in ring order starting at key's
// owner: the preference order for failover (Successors(k)[0] is the
// owner; a query falls through to the next entries only when earlier
// ones are down or do not hold the graph).
func (r *Ring) Successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := r.search(key)
	out := make([]string, 0, len(r.members))
	seen := make([]bool, len(r.members))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// search returns the index of the first point at or clockwise-after
// key's hash.
func (r *Ring) search(key string) int {
	h := hash64(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0 // wrap: the circle's first point
	}
	return idx
}

// hash64 is FNV-1a followed by a murmur-style finalizer. Plain FNV-1a
// puts short keys with shared prefixes ("graph-000", "graph-001", ...)
// within a narrow band of the 64-bit circle - the last byte only passes
// through one multiply - which collapses placement onto one member; the
// finalizer diffuses every input bit across the whole word. Both steps
// are fixed arithmetic, so placement is identical across platforms and
// Go versions (it is part of the deployment contract: scripts, tests
// and clients must all compute the same owners).
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s)) //nolint:errcheck // fnv never fails
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
