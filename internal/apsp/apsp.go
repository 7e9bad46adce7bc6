// Package apsp implements the paper's all-pairs shortest path
// approximations (§6): the (3+ε)-approximation (§6.1), the
// (2+ε, (1+ε)W)-approximation for weighted graphs (§6.2, Theorem 28), and
// the (2+ε)-approximation for unweighted graphs (§6.3, Theorem 31). All are
// deterministic and run in O(log²n/ε) rounds. Each is written once, over
// internal/clique, for the simulated and the direct backend alike: the
// answer is the dense n×n estimate table, row v what node v learns, and
// every step folds into it by a monotone min, so the order in which the
// rows fill is irrelevant.
package apsp

import (
	"context"
	"math"
	"slices"

	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// HopsetParams derives the hopset parameterization the §6 APSP
// algorithms use from the target stretch ε: the inner MSSP runs at
// ε' = ε/2 (Lemma 27 / Lemma 30), so the clique an algorithm runs on must
// detect over a hopset built with these params.
func HopsetParams(hp hopset.Params, eps float64) hopset.Params {
	hp.Eps = eps / 2
	return hp
}

// ThreePlusEps computes the (3+ε)-approximate weighted APSP of §6.1 on
// c's graph, whose augmented weight matrix is w: δ(u,v) <= d(u,p(u)) +
// (1+ε')(2d) <= (3+2ε')d for ε' = ε/2. c's MSSP runs over the hopset of
// HopsetParams. The answer is the flat row-major n×n table, cell v·n+u
// the estimate for (v, u); it comes from the detection planes' pool
// (disttools.ReleasePlane takes it back).
func ThreePlusEps(c clique.Clique, w *matrix.Mat[semiring.WH]) ([]int64, error) {
	return weighted(c, w, false)
}

// TwoPlusEpsWeighted computes the (2+ε, (1+ε)W)-approximate weighted APSP
// of §6.2 (Theorem 28) on c's graph, whose augmented weight matrix is w:
// for every pair, the estimate is at most (2+ε)d(u,v) + (1+ε)W where W is
// the heaviest edge on a shortest u-v path. c's MSSP runs over the hopset
// of HopsetParams; the answer is the table, as in ThreePlusEps.
func TwoPlusEpsWeighted(c clique.Clique, w *matrix.Mat[semiring.WH]) ([]int64, error) {
	return weighted(c, w, true)
}

// weighted is §6.2's algorithm, and without through §6.1's, which skips
// line (3) and the cross terms of line (7).
func weighted(c clique.Clique, w *matrix.Mat[semiring.WH], through bool) ([]int64, error) {
	// Line (1): edge estimates.
	flat, est := newTable(w)
	// Line (2): exact distances to the √n nearest, both directions ("if
	// v ∈ N_k(u), u sends d(u,v) to v").
	c.Phase("apsp/k-nearest")
	knear, release, err := c.KNearest(sqrtCeil(c.N()))
	if err != nil {
		return nil, err
	}
	defer release()
	foldRows(est, knear)
	if err := c.Mirror(est, knear); err != nil {
		return nil, err
	}
	// Line (3): distances through N_k(u) ∩ N_k(v).
	if through {
		c.Phase("apsp/dist-through-sets")
		if err := c.ThroughSets(est, knear); err != nil {
			return nil, err
		}
	}
	// Line (4): hitting set A of the N_k sets.
	c.Phase("apsp/hitting-set")
	inA, err := c.Hit(knear.Rows)
	if err != nil {
		return nil, err
	}
	// Line (5): (1+ε')-approximate MSSP from A.
	plane, src, err := detect(c, est, inA)
	if err != nil {
		return nil, err
	}
	defer disttools.ReleasePlane(plane)
	// Lines (6)-(7): pivots and the combination, symmetric with through.
	c.Phase("apsp/pivot-combine")
	if err := combine(c, est, knear, inA, plane, src, through); err != nil {
		return nil, err
	}
	return flat, nil
}

// TwoPlusEpsWeightedDirect is TwoPlusEpsWeighted on the host clique, gh
// and beta an artifact's G ∪ H and hopbound.
func TwoPlusEpsWeightedDirect(ctx context.Context, sr semiring.AugMinPlus, w, gh *matrix.Mat[semiring.WH], beta, workers int) ([]int64, error) {
	return TwoPlusEpsWeighted(clique.NewDirect(ctx, sr, w, mssp.Built{M: gh}, beta, workers), w)
}

// newTable returns the estimate table holding line (1)'s edge estimates,
// at rest (semiring.Inf) elsewhere: est[v] is the capacity-clipped window
// of flat, one row-major n×n array from the detection planes' pool, so a
// caller that lends the answer and hands it back lets the next table
// reuse it (DESIGN.md §13, "the result path").
func newTable(w *matrix.Mat[semiring.WH]) (flat []int64, est [][]int64) {
	n := w.N
	flat = disttools.TakePlane(n * n)
	for i := range flat {
		flat[i] = semiring.Inf
	}
	est = make([][]int64, n)
	for v := range est {
		est[v] = flat[v*n : (v+1)*n : (v+1)*n]
		est[v][v] = 0
	}
	foldRows(est, w)
	return flat, est
}

// foldRows folds the weights of m's entries into est.
func foldRows(est [][]int64, m *matrix.Mat[semiring.WH]) {
	for v, r := range m.Rows {
		for _, e := range r {
			est[v][e.Col] = min(est[v][e.Col], e.Val.W)
		}
	}
}

// detect runs the MSSP from inA and folds δ̃(v, a) for every a ∈ A into
// est. It returns the plane, whose j-th column is the j-th member of
// src; the caller gives the plane back.
func detect(c clique.Clique, est [][]int64, inA []bool) ([]int64, []int32, error) {
	plane, err := c.MSSP(inA)
	if err != nil {
		return nil, nil, err
	}
	src := hitting.Members(inA)
	q := len(src)
	for v, row := range est {
		for j, a := range src {
			row[a] = min(row[a], plane[v*q+j])
		}
	}
	return plane, src, nil
}

// combine applies the pivot updates: every node v broadcasts its pivot
// p(v), the member of A nearest to it in its row of knear, and d(v,p(v))
// (two rounds); v then folds d(u,p(u)) + δ̃(v,p(u)) for every u from its
// plane row (src the plane's columns) - all of §6.1's update - and, with
// cross, d(v,p(v)) + δ̃(p(v),u), which u sends it (§6.2 line (7), §6.3
// line (10)).
func combine(c clique.Clique, est [][]int64, knear *matrix.Mat[semiring.WH], inA []bool, plane []int64, src []int32, cross bool) error {
	n := len(est)
	pv, dpv := make([]int64, n), make([]int64, n)
	for v, r := range knear.Rows {
		p, d := int32(-1), semiring.InfWH
		for _, e := range r {
			if inA[e.Col] && semiring.LessWH(e.Val, d) {
				p, d = e.Col, e.Val
			}
		}
		pv[v], dpv[v] = int64(p), d.W
	}
	pvs, err := c.Broadcast(pv)
	if err != nil {
		return err
	}
	dpvs, err := c.Broadcast(dpv)
	if err != nil {
		return err
	}
	// col[u] is the plane column of p(u), -1 for a node without one.
	col := make([]int, n)
	for u, p := range pvs {
		col[u] = -1
		if p >= 0 {
			col[u], _ = slices.BinarySearch(src, int32(p))
		}
	}
	q := len(src)
	for v, row := range est {
		for u, j := range col {
			if j >= 0 {
				row[u] = min(row[u], semiring.MinPlus{}.Mul(dpvs[u], plane[v*q+j]))
			}
		}
	}
	if !cross {
		return nil
	}
	return c.PivotCross(est, plane, col, dpvs)
}

func sqrtCeil(n int) int { return int(math.Ceil(math.Sqrt(float64(n)))) }
