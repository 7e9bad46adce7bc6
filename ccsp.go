package ccsp

import (
	"context"
	"fmt"
	"sort"

	"github.com/congestedclique/ccsp/api"
)

// APSPResult holds all-pairs distance estimates.
type APSPResult struct {
	// Dist[u][v] is the estimate for the pair (u, v); Unreachable for
	// disconnected pairs. Estimates never underestimate true distances.
	Dist [][]int64
	// Stats is the communication cost of the run.
	Stats Stats
}

// Distance returns the estimate for (u, v).
func (r *APSPResult) Distance(u, v int) int64 { return r.Dist[u][v] }

// APSPUnweighted computes (2+ε)-approximate APSP on an unweighted graph
// (Theorem 31) in O(log²n/ε) rounds. The guarantee requires unit weights;
// on weighted inputs the estimates are still sound upper bounds but only
// the weighted guarantee of APSPWeighted applies.
func APSPUnweighted(ctx context.Context, gr *Graph, opts Options) (*APSPResult, error) {
	return oneShot(ctx, gr, opts, (*Engine).APSPUnweighted, foldAPSP)
}

// APSPWeighted computes (2+ε, (1+ε)W)-approximate APSP on a weighted graph
// (Theorem 28): each estimate is at most (2+ε)·d(u,v) + (1+ε)·W, where W
// is the heaviest edge on a shortest u-v path.
func APSPWeighted(ctx context.Context, gr *Graph, opts Options) (*APSPResult, error) {
	return oneShot(ctx, gr, opts, (*Engine).APSPWeighted, foldAPSP)
}

// APSPWeighted3 computes the simpler (3+ε)-approximate weighted APSP of
// §6.1 (fewer phases; kept for ablation against APSPWeighted).
func APSPWeighted3(ctx context.Context, gr *Graph, opts Options) (*APSPResult, error) {
	return oneShot(ctx, gr, opts, (*Engine).APSPWeighted3, foldAPSP)
}

func foldAPSP(r *APSPResult, pre Stats) { r.Stats = pre.Merge(r.Stats) }

// MSSPResult holds multi-source distance estimates.
type MSSPResult struct {
	// Sources lists the source nodes, ascending.
	Sources []int
	// Dist[v][i] is the (1+ε)-approximate distance from node v to
	// Sources[i]; Unreachable for disconnected pairs.
	Dist [][]int64
	// Stats is the communication cost of the run.
	Stats Stats
}

// Distance returns the estimate from node v to source s (which must be in
// Sources).
func (r *MSSPResult) Distance(v, s int) (int64, error) {
	i := sort.SearchInts(r.Sources, s)
	if i >= len(r.Sources) || r.Sources[i] != s {
		return 0, fmt.Errorf("%w: %d is not a source of this result", ErrInvalidSource, s)
	}
	return r.Dist[v][i], nil
}

// MSSP computes (1+ε)-approximate distances from every node to every
// source (Theorem 3): polylogarithmic rounds for |sources| up to ~√n.
func MSSP(ctx context.Context, gr *Graph, sources []int, opts Options) (*MSSPResult, error) {
	return oneShot(ctx, gr, opts, func(e *Engine, ctx context.Context) (*MSSPResult, error) { return e.MSSP(ctx, sources) },
		func(r *MSSPResult, pre Stats) { r.Stats = pre.Merge(r.Stats) })
}

// SSSPResult holds exact single-source distances.
type SSSPResult struct {
	// Source is the source node.
	Source int
	// Dist[v] is the exact distance from Source to v.
	Dist []int64
	// Iterations is the number of Bellman-Ford iterations on the shortcut
	// graph (bounded by 4·n/k + O(1), Lemma 32).
	Iterations int
	// Stats is the communication cost of the run.
	Stats Stats
}

// PathTo reconstructs a shortest path from the result's source to v on the
// original graph by predecessor descent over the exact distances. It
// returns nil if v is unreachable.
func (r *SSSPResult) PathTo(gr *Graph, v int) []int {
	if r.Dist[v] >= Unreachable {
		return nil
	}
	path := []int{v}
	cur := v
	for cur != r.Source {
		next := -1
		gr.Neighbors(cur, func(u int, w int64) {
			if r.Dist[u]+w == r.Dist[cur] && (next < 0 || u < next) {
				next = u
			}
		})
		if next < 0 {
			return nil // inconsistent distances; cannot happen for exact results
		}
		cur = next
		path = append(path, cur)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// SSSP computes exact single-source shortest paths (Theorem 33) in
// O~(n^{1/6}) rounds via the n^{5/6}-shortcut graph and Bellman-Ford.
func SSSP(ctx context.Context, gr *Graph, source int, opts Options) (*SSSPResult, error) {
	return oneShot(ctx, gr, opts, func(e *Engine, ctx context.Context) (*SSSPResult, error) { return e.SSSP(ctx, source) },
		func(r *SSSPResult, pre Stats) { r.Stats = pre.Merge(r.Stats) })
}

// DiameterResult holds the diameter estimate.
type DiameterResult struct {
	// Estimate satisfies roughly 2D/3 <= Estimate <= (1+ε)·D for true
	// diameter D (Claim 35; weighted graphs lose an additive max-weight
	// term on the lower side).
	Estimate int64
	// Stats is the communication cost of the run.
	Stats Stats
}

// Diameter computes the near-3/2 diameter approximation of §7.2.
func Diameter(ctx context.Context, gr *Graph, opts Options) (*DiameterResult, error) {
	return oneShot(ctx, gr, opts, (*Engine).Diameter,
		func(r *DiameterResult, pre Stats) { r.Stats = pre.Merge(r.Stats) })
}

// Neighbor is one entry of a k-nearest or source-detection list; the
// in-process and wire forms are one type.
type Neighbor = api.Neighbor

// KNearestResult holds per-node nearest-neighbor lists.
type KNearestResult struct {
	// Neighbors[v] lists v's k closest nodes (including itself), by
	// (distance, hops, ID).
	Neighbors [][]Neighbor
	// Stats is the communication cost of the run.
	Stats Stats
}

// KNearest computes, for every node, exact distances and routing witnesses
// to its k closest nodes (Theorem 18 over the witness-tracking semiring).
func KNearest(ctx context.Context, gr *Graph, k int, opts Options) (*KNearestResult, error) {
	return oneShot(ctx, gr, opts, func(e *Engine, ctx context.Context) (*KNearestResult, error) { return e.KNearest(ctx, k) },
		func(r *KNearestResult, pre Stats) { r.Stats = pre.Merge(r.Stats) })
}

// SourceDetectionResult holds hop-limited nearest-source lists.
type SourceDetectionResult struct {
	// Detected[v] lists the up-to-k nearest sources within d hops of v,
	// with d-hop-limited distances.
	Detected [][]Neighbor
	// Stats is the communication cost of the run.
	Stats Stats
}

// SourceDetection solves the (S, d, k)-source detection problem
// (Theorem 19): every node learns its k nearest sources within d hops.
func SourceDetection(ctx context.Context, gr *Graph, sources []int, d, k int, opts Options) (*SourceDetectionResult, error) {
	return oneShot(ctx, gr, opts, func(e *Engine, ctx context.Context) (*SourceDetectionResult, error) {
		return e.SourceDetection(ctx, sources, d, k)
	},
		func(r *SourceDetectionResult, pre Stats) { r.Stats = pre.Merge(r.Stats) })
}

// Query answers one typed api.Request on gr without keeping an engine:
// the one-shot form of Engine.Query, as the typed functions above are of
// the Engine methods. The engine is lazy, so a request that needs no
// hopset (sssp, knearest, sourcedetect) builds none, and the
// preprocessing a request did pay is folded into the response's Stats.
func Query(ctx context.Context, gr *Graph, req api.Request, opts Options) (*api.Response, error) {
	return oneShot(ctx, gr, opts, func(e *Engine, ctx context.Context) (*api.Response, error) { return e.Query(ctx, req) },
		func(r *api.Response, pre Stats) {
			r.Stats.TotalRounds += pre.TotalRounds
			r.Stats.SimRounds += pre.SimRounds
			r.Stats.Messages += pre.Messages
			r.Stats.Words += pre.Words
		})
}
