package apsp

import (
	"math"

	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// TwoPlusEpsUnweighted computes the (2+ε)-approximate unweighted APSP of
// §6.3 (Theorem 31) on g's graph G, whose augmented weight matrix is w.
// It handles shortest paths through high-degree nodes via a neighborhood
// hitting set and MSSP on g (first phase), and paths confined to
// low-degree nodes on low, the clique of the same nodes on the sparse
// subgraph G' (LowDegree): n^{1/4}-nearest sets, a sparse MSSP from an
// O~(n^{3/4}) hitting set, and the 3-hop triple product M1·M2·M3 (second
// phase). Both MSSPs run over the hopsets of
// HopsetParams, on G and on G'; the answer is the table, as in
// ThreePlusEps.
func TwoPlusEpsUnweighted(g clique.Clique, w *matrix.Mat[semiring.WH], low clique.Clique) ([]int64, error) {
	n := g.N()

	// Line (1): edge estimates.
	flat, est := newTable(w)

	// --- First phase: shortest paths with a high-degree node. ---

	// Line (2): A hits every high-degree neighborhood (a row includes the
	// diagonal: its length is |N(v)|); a low-degree row is no set.
	k := DegreeThreshold(n)
	high := make([]matrix.Row[semiring.WH], n)
	for v, row := range w.Rows {
		if len(row) >= k {
			high[v] = row
		}
	}
	g.Phase("apsp/hitting-set")
	inA, err := g.Hit(high)
	if err != nil {
		return nil, err
	}
	// Line (3): MSSP from A.
	plane, src, err := detect(g, est, inA)
	if err != nil {
		return nil, err
	}
	// Line (4): distances through A - every node's set is its estimates
	// to all of A.
	through := planeRows(n, plane, src)
	disttools.ReleasePlane(plane)
	g.Phase("apsp/dist-through-sets")
	if err := g.ThroughSets(est, through); err != nil {
		return nil, err
	}

	// --- Second phase: shortest paths among low-degree nodes only. ---

	// Line (5): n^{1/4}-nearest in G' (exact G'-distances, which upper
	// bound d_G and equal it for all-low shortest paths).
	kq := int(math.Ceil(math.Pow(float64(n), 0.25)))
	low.Phase("apsp/low-degree/k-nearest")
	knearLow, release, err := low.KNearest(kq)
	if err != nil {
		return nil, err
	}
	defer release()
	foldRows(est, knearLow)
	// Line (6): distances through N_{k'}(u) ∩ N_{k'}(v).
	low.Phase("apsp/low-degree/dist-through-sets")
	if err := low.ThroughSets(est, knearLow); err != nil {
		return nil, err
	}
	// Line (7): A' hits the N_{k'} sets of G' nodes.
	low.Phase("apsp/low-degree/hitting-set")
	inA2, err := low.Hit(knearLow.Rows)
	if err != nil {
		return nil, err
	}
	// Line (8): sparse MSSP from A' in G' (the G' ∪ H graph has
	// O~(n^{3/2}) edges).
	plane2, src2, err := detect(low, est, inA2)
	if err != nil {
		return nil, err
	}
	defer disttools.ReleasePlane(plane2)
	// Lines (9)-(10): pivots p'(v) and the symmetric combination.
	low.Phase("apsp/low-degree/pivot-combine")
	if err := combine(low, est, knearLow, inA2, plane2, src2, true); err != nil {
		return nil, err
	}

	// Lines (11)-(12): 3-hop paths u - u' - v' - v with u' ∈ N_{k'}(u),
	// v' ∈ N_{k'}(v), {u',v'} ∈ E', via the triple product M1·M2·M3 over
	// min-plus, M3 = M1ᵀ: each row of M1·M2 has at most k'·maxdeg(G') <=
	// k'·k support entries.
	low.Phase("apsp/low-degree/triple-product")
	if err := low.Triple(est, knearLow, min(kq*k, n)); err != nil {
		return nil, err
	}
	return flat, nil
}

// DegreeThreshold returns the §6.3 high/low degree threshold k = ⌈√n⌉
// (neighborhoods of size >= k are "high-degree"; |N(v)| counts v itself).
func DegreeThreshold(n int) int { return sqrtCeil(n) }

// LowDegreeRow restricts node self's augmented weight row (diagonal
// included) to the subgraph G' induced on nodes of degree < k, where
// degs[v] = |N(v)| is the broadcast neighborhood-size vector.
// High-degree nodes are outside G' and get a nil row.
func LowDegreeRow(self int, wrow matrix.Row[semiring.WH], degs []int64, k int) matrix.Row[semiring.WH] {
	if int(degs[self]) >= k {
		return nil
	}
	low := make(matrix.Row[semiring.WH], 0, len(wrow))
	for _, en := range wrow {
		if int(degs[en.Col]) < k {
			low = append(low, en)
		}
	}
	return low
}

// LowDegree is the weight matrix of G', the subgraph of w induced on the
// nodes of degree < DegreeThreshold under the degree vector degs.
func LowDegree(w *matrix.Mat[semiring.WH], degs []int64) *matrix.Mat[semiring.WH] {
	low := matrix.New[semiring.WH](w.N)
	for v := range low.Rows {
		low.Rows[v] = LowDegreeRow(v, w.Rows[v], degs, DegreeThreshold(w.N))
	}
	return low
}

// planeRows is an MSSP plane as sets: row v holds (s, δ̃(v,s)) for every
// source s (src the plane's columns) that reaches v, all rows cut from
// one backing array.
func planeRows(n int, plane []int64, src []int32) *matrix.Mat[semiring.WH] {
	q := len(src)
	out := matrix.New[semiring.WH](n)
	backing := make([]matrix.Entry[semiring.WH], 0, len(plane))
	for v := range out.Rows {
		start := len(backing)
		for j, s := range src {
			if d := plane[v*q+j]; d < semiring.Inf {
				backing = append(backing, matrix.Entry[semiring.WH]{Col: s, Val: semiring.WH{W: d}})
			}
		}
		out.Rows[v] = backing[start:len(backing):len(backing)]
	}
	return out
}
