// Package disttools implements the paper's distance-computation tools (§3)
// on top of the sparse matrix multiplication machinery: augmented distance
// products (§3.1), k-nearest neighbors (Theorem 18), (S,d,k)-source
// detection in both variants (Theorem 19), and distance through node sets
// (Theorem 20). The functions of this file are collectives: they run
// inside cc node programs, with node v holding row v of the relevant
// matrices. direct.go computes the same answers for every node at once on
// the host (DESIGN.md §12), detection by the same products and k-nearest
// by a truncated lexicographic Dijkstra per row (nearest.go), which
// returns exactly what the filtered squarings do (DESIGN.md §13, "the fast
// build path", exit 5).
package disttools

import (
	"math/bits"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// KNearest solves the k-nearest problem (Theorem 18): given row v of the
// augmented weight matrix W (§3.1, diagonal included), it returns the k
// lexicographically smallest entries of row v of W^n - the distances (and
// hop counts) to the k closest nodes, ties broken by (distance, hops,
// node ID). It runs ceil(log2 k) filtered squarings (Theorem 14), each with
// output density k. It is generic over ordered semirings: with
// semiring.AugMinPlus it returns distances, with semiring.RoutedMinPlus it
// additionally returns first-hop routing witnesses (§3.1, recovering
// paths).
func KNearest[E any](nd *cc.Node, sr semiring.Ordered[E], wrow matrix.Row[E], k int) matrix.Row[E] {
	if k < 1 {
		k = 1
	}
	if k > nd.N {
		k = nd.N
	}
	cur := matrix.FilterRow(sr, wrow, k)
	// W̄^{2^t}: by Lemma 17, 2^t >= k hops suffice to reach the k nearest.
	iters := bits.Len(uint(k - 1)) // ceil(log2 k)
	for t := 0; t < iters; t++ {
		cur = matmul.MultiplyFiltered(nd, sr, cur, cur, k)
	}
	return cur
}

// SourceDetect solves the (S,d,|S|)-source detection problem, second
// variant of Theorem 19: it returns, for this node, the d-hop-limited
// augmented distances to every source (row v of U_d). inS marks the source
// set; all nodes must pass identical inS and d. wrow is row v of the
// augmented weight matrix of the graph (which may include hopset edges).
// The iterated products use Theorem 8 with output density |S|, which is an
// upper bound on the support density of every U_i by construction.
func SourceDetect[E any](nd *cc.Node, sr semiring.Semiring[E], wrow matrix.Row[E], inS []bool, d int) (matrix.Row[E], error) {
	nS := 0
	for _, s := range inS {
		if s {
			nS++
		}
	}
	if nS == 0 {
		return nil, nil
	}
	// U_1: row v of W restricted to source columns (self-distance (0,0)
	// included for sources via the diagonal of W).
	u := make(matrix.Row[E], 0, nS)
	for _, e := range wrow {
		if inS[e.Col] {
			u = append(u, e)
		}
	}
	for i := 1; i < d; i++ {
		next, err := matmul.Multiply(nd, sr, wrow, u, nS)
		if err != nil {
			return nil, err
		}
		u = next
	}
	return u, nil
}

// SourceDetectK solves the (S,d,k)-source detection problem, first variant
// of Theorem 19: each node learns the k nearest sources within d hops,
// using d filtered products (Theorem 14) with output density k. Ties break
// by (distance, hops, node ID) as in the filtered order.
func SourceDetectK[E any](nd *cc.Node, sr semiring.Ordered[E], wrow matrix.Row[E], inS []bool, d, k int) matrix.Row[E] {
	if k < 1 {
		k = 1
	}
	if k > nd.N {
		k = nd.N
	}
	// W_1: the k lightest edges to sources (and the self entry for
	// sources), per the proof of Theorem 19.
	u := make(matrix.Row[E], 0, k)
	for _, e := range wrow {
		if inS[e.Col] {
			u = append(u, e)
		}
	}
	u = matrix.FilterRow(sr, u, k)
	for i := 1; i < d; i++ {
		u = matmul.MultiplyFiltered(nd, sr, wrow, u, k)
	}
	return u
}

// Est carries one node's distance estimates to and from a member w of its
// set W_v, the input of the distance-through-sets problem (§3.4). For
// undirected estimates To == From.
type Est struct {
	W        int32
	To, From int64
}

// DistThroughSets solves the distance-through-sets problem (Theorem 20):
// given each node's estimates to and from its set W_v, every node v learns
// min over w in W_v ∩ W_u of (δ(v,w) + δ(w,u)) for all u, as row v of the
// product W_1 ⋆ W_2 over the plain min-plus semiring, computed by Theorem 8
// with output density n.
func DistThroughSets(nd *cc.Node, sr semiring.MinPlus, ests []Est) (matrix.Row[int64], error) {
	// Build row v of W_1 and ship δ(w,v) entries to w so node w can
	// assemble row w of W_2 (one message per set member; at most one per
	// destination, so a single round).
	w1 := make(matrix.Row[int64], 0, len(ests))
	out := make([]cc.Packet, 0, len(ests))
	for _, e := range ests {
		w1 = append(w1, matrix.Entry[int64]{Col: e.W, Val: e.To})
		out = append(out, cc.Packet{Dst: e.W, M: cc.Msg{A: e.From}})
	}
	w1 = matrix.SortRow(w1)
	var w2 matrix.Row[int64]
	for _, m := range nd.Sync(out) {
		w2 = append(w2, matrix.Entry[int64]{Col: m.Src, Val: m.A})
	}
	return matmul.Multiply(nd, sr, w1, w2, nd.N)
}
