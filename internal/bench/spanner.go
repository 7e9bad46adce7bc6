// The spanner-route baseline of §1.1 that E12 measures: build a
// (2k-1)-spanner, have every node learn all its O~(n^{1+1/k}) edges, and
// answer APSP queries locally - a (2k-1)-approximation in O~(n^{1/k})
// rounds, the approach the paper's polylogarithmic algorithms are compared
// against.
//
// Substitution note (DESIGN.md): the paper cites the deterministic spanners
// of Parter-Yogev [52]; we substitute the classic Baswana-Sen construction
// with a seeded deterministic hash (same size/stretch trade-off,
// reproducible runs). Each clustering phase costs one broadcast round; the
// dominant cost is learning the spanner, charged through routing.

package bench

import (
	"fmt"
	"math"
	"sort"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// spannerResult is one node's spanner-baseline APSP output.
type spannerResult struct {
	// Dist is this node's distance estimates via the spanner (stretch at
	// most 2k-1).
	Dist []int64
	// SpannerEdges is the global spanner size |H| (undirected edges).
	SpannerEdges int
}

// spannerAPSP runs the spanner baseline: Baswana-Sen clustering (k-1 broadcast
// phases), a final per-cluster edge phase, full dissemination of the
// spanner, and local Dijkstra. All nodes pass identical k and seed.
func spannerAPSP(nd *cc.Node, wrow matrix.Row[semiring.WH], k int, seed int64) (*spannerResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: invalid k=%d", k)
	}
	n := nd.N
	me := nd.ID

	// Adjacency (excluding the diagonal), deduplicated by neighbor.
	type edge struct {
		to int32
		w  int64
	}
	adj := make([]edge, 0, len(wrow))
	for _, e := range wrow {
		if int(e.Col) != me {
			adj = append(adj, edge{to: e.Col, w: e.Val.W})
		}
	}

	// sampled reports whether cluster center c survives phase i, with
	// probability n^{-1/k} under a seeded hash (deterministic across
	// nodes).
	thresholdNum := int64(1 << 30)
	// p = n^{-1/k}: realize as (2^30)·n^{-1/k}.
	pScaled := float64(int64(1)<<30) * math.Pow(float64(n), -1.0/float64(k))
	sampled := func(c int64, phase int) bool {
		return float64(hash3(seed, c, int64(phase))%thresholdNum) < pScaled
	}

	cluster := int64(me)             // my cluster center; -1 once dropped out
	myEdges := make(map[int64]int64) // packed (u<<32|v) -> weight, u<v

	addEdge := func(u, v int32, w int64) {
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := int64(a)<<32 | int64(b)
		if old, ok := myEdges[key]; !ok || w < old {
			myEdges[key] = w
		}
	}

	// exitWith adds the lightest edge to every adjacent cluster (per the
	// broadcast cluster vector) and leaves the clustering.
	exitWith := func(clusters []int64) {
		best := make(map[int64]edge)
		for _, e := range adj {
			c := clusters[e.to]
			if c < 0 {
				continue
			}
			if b, ok := best[c]; !ok || e.w < b.w || (e.w == b.w && e.to < b.to) {
				best[c] = e
			}
		}
		for _, e := range best {
			addEdge(int32(me), e.to, e.w)
		}
		cluster = -1
	}

	for phase := 1; phase < k; phase++ {
		clusters := nd.BroadcastVal(cluster)
		if cluster < 0 {
			continue // dropped out; still participates in the broadcast
		}
		if sampled(cluster, phase) {
			continue // my cluster survives this phase
		}
		// Find the lightest edge into a sampled cluster.
		bestTo := int32(-1)
		var bestW int64
		for _, e := range adj {
			c := clusters[e.to]
			if c < 0 || !sampled(c, phase) {
				continue
			}
			if bestTo < 0 || e.w < bestW || (e.w == bestW && e.to < bestTo) {
				bestTo, bestW = e.to, e.w
			}
		}
		if bestTo >= 0 {
			addEdge(int32(me), bestTo, bestW)
			cluster = clusters[bestTo]
		} else {
			exitWith(clusters)
		}
	}
	// Final phase: clustered nodes connect to every adjacent cluster.
	clusters := nd.BroadcastVal(cluster)
	if cluster >= 0 {
		exitWith(clusters)
	} else {
		_ = clusters
	}

	// Learn the spanner: every node ships each of its edges to every node.
	out := make([]cc.Packet, 0, len(myEdges)*n)
	for key, w := range myEdges {
		for v := 0; v < n; v++ {
			out = append(out, cc.Packet{Dst: int32(v), M: cc.Msg{A: key >> 32, B: key & 0xffffffff, C: w}})
		}
	}
	all := nd.Route(out)

	// Deduplicate (edges may be announced by both endpoints) and build the
	// local spanner graph.
	type rec struct {
		u, v int32
		w    int64
	}
	recs := make([]rec, 0, len(all))
	for _, m := range all {
		recs = append(recs, rec{u: int32(m.A), v: int32(m.B), w: m.C})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].u != recs[j].u {
			return recs[i].u < recs[j].u
		}
		if recs[i].v != recs[j].v {
			return recs[i].v < recs[j].v
		}
		return recs[i].w < recs[j].w
	})
	h := graph.New(n)
	edges := 0
	for i, r := range recs {
		if i > 0 && recs[i-1].u == r.u && recs[i-1].v == r.v {
			continue
		}
		if err := h.AddEdge(int(r.u), int(r.v), r.w); err != nil {
			return nil, fmt.Errorf("spanner: bad edge: %w", err)
		}
		edges++
	}
	return &spannerResult{Dist: h.Dijkstra(me), SpannerEdges: edges}, nil
}

func hash3(seed, a, b int64) int64 {
	h := uint64(seed)*0x9E3779B9 ^ uint64(a)*0x85EBCA6B ^ uint64(b)*0xC2B2AE3D
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return int64(h & (1<<62 - 1))
}
