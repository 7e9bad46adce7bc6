// Direct (host-side) counterparts of the §6 APSP query stages
// (DESIGN.md §12): the same algebra as the ...WithHopset collectives,
// computed for all nodes at once on the full weight matrix with the
// matmul kernels. Every estimate update is a monotone min on dense rows,
// so the accumulation order is irrelevant and each function's row v is
// byte-identical to what its collective sibling returns at node v.
package apsp

import (
	"context"
	"math"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// estAll is the dense n×n estimate table: row v mirrors node v's est. The
// rows are capacity-clipped windows of one row-major n×n array, flat, and
// flat is the answer the caller receives. It comes from the detection
// planes' pool, so a caller that lends the answer and hands it back
// (disttools.ReleasePlane) lets the next table reuse it (DESIGN.md §13,
// "the result path").
type estAll struct {
	flat []int64
	rows [][]int64
}

func newEstAll(n int) *estAll {
	flat := disttools.TakePlane(n * n)
	for i := range flat {
		flat[i] = semiring.Inf
	}
	e := &estAll{flat: flat, rows: make([][]int64, n)}
	for v := 0; v < n; v++ {
		e.rows[v] = flat[v*n : (v+1)*n : (v+1)*n]
		e.rows[v][v] = 0
	}
	return e
}

func (e *estAll) upd(v int, u int32, val int64) {
	if val < e.rows[v][u] {
		e.rows[v][u] = val
	}
}

func (e *estAll) updMatWH(m *matrix.Mat[semiring.WH]) {
	for v, r := range m.Rows {
		for _, en := range r {
			e.upd(v, en.Col, en.Val.W)
		}
	}
}

// updPanel folds an MSSP answer in: δ(v,s) for every source s. A cell at
// rest (semiring.Inf) never wins the min, so none is skipped.
func (e *estAll) updPanel(p *disttools.Panel) {
	q := len(p.Sources)
	for v := 0; v < p.N; v++ {
		for j, s := range p.Sources {
			e.upd(v, s, p.W[v*q+j])
		}
	}
}

// whWeight and plainWeight read an entry's distance for the min-plus
// folds into the table.
func whWeight(v semiring.WH) int64 { return v.W }
func plainWeight(v int64) int64    { return v }

// exactKNearestAll mirrors exactKNearest for all nodes: k-nearest rows
// plus the symmetric update (u learns d(v,u) for v with u ∈ N_k(v)). The
// rows are lent (disttools.KNearestLent): the caller releases them once
// its last stage has read them.
func exactKNearestAll(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], k, workers int, e *estAll) (*matrix.Mat[semiring.WH], func(), error) {
	knear, release, err := disttools.KNearestLent[semiring.WH](ctx, sr, w, k, workers)
	if err != nil {
		return nil, nil, err
	}
	for v, r := range knear.Rows {
		for _, en := range r {
			e.upd(v, en.Col, en.Val.W)
			if int(en.Col) != v {
				e.upd(int(en.Col), int32(v), en.Val.W)
			}
		}
	}
	return knear, release, nil
}

// pivotsAll mirrors pivotOf for all nodes.
func pivotsAll(knear *matrix.Mat[semiring.WH], inA []bool) (pvs []int64, dpvs []int64) {
	n := knear.N
	pvs = make([]int64, n)
	dpvs = make([]int64, n)
	for v := 0; v < n; v++ {
		pv, dpv := pivotOf(knear.Rows[v], inA)
		pvs[v] = int64(pv)
		dpvs[v] = dpv.W
	}
	return pvs, dpvs
}

// pivotCols maps every node's pivot to its column of the MSSP panel the
// pivots were drawn from (-1 for a node without one): δ̃(v, p(u)) is then
// the panel cell (v, pivotCols[u]), read in place - what the collective
// version reads out of node v's dense MSSP row.
func pivotCols(p *disttools.Panel, pvs []int64) []int {
	cols := make([]int, len(pvs))
	for v, pv := range pvs {
		cols[v] = -1
		if pv >= 0 {
			cols[v] = p.Col(int32(pv))
		}
	}
	return cols
}

// pivotCombineAll applies the §6.2 line (7) / §6.3 line (10) updates for
// every pair, mirroring pivotCombine: p is the MSSP answer from the
// hitting set the pivots belong to.
func pivotCombineAll(e *estAll, p *disttools.Panel, pvs, dpvs []int64) {
	n, q := len(pvs), len(p.Sources)
	pcol := pivotCols(p, pvs)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if c := pcol[v]; c >= 0 {
				e.upd(v, int32(u), addSat(dpvs[v], p.W[u*q+c]))
			}
			if c := pcol[u]; c >= 0 {
				e.upd(v, int32(u), addSat(dpvs[u], p.W[v*q+c]))
			}
		}
	}
}

// plainWeights is m over the plain min-plus semiring - the weights
// without the hop counts - minus the diagonal if asked, all rows cut from
// one backing array.
func plainWeights(m *matrix.Mat[semiring.WH], dropDiagonal bool) *matrix.Mat[int64] {
	out := matrix.New[int64](m.N)
	backing := make([]matrix.Entry[int64], 0, m.NNZ())
	for v, row := range m.Rows {
		start := len(backing)
		for _, en := range row {
			if !dropDiagonal || int(en.Col) != v {
				backing = append(backing, matrix.Entry[int64]{Col: en.Col, Val: en.Val.W})
			}
		}
		out.Rows[v] = backing[start:len(backing):len(backing)]
	}
	return out
}

// ThreePlusEpsDirect is the host-side counterpart of
// ThreePlusEpsWithHopset for all nodes. gh and beta come from the eps/2
// artifact on G: gh is G ∪ H, either mssp.MergeGH(sr, w, art) or the
// engine's cached overlay (hopset.OverlayRow), which detects the same
// (DESIGN.md §13, "One copy of G ∪ H"), and beta = art.Beta. The result
// is the row-major n×n table, and its row v (cells v·n to v·n+n−1) is
// byte-identical to node v's collective output.
func ThreePlusEpsDirect(ctx context.Context, sr semiring.AugMinPlus, w, gh *matrix.Mat[semiring.WH], beta, workers int) ([]int64, error) {
	n := w.N
	e := newEstAll(n)
	e.updMatWH(w)
	knear, release, err := exactKNearestAll(ctx, sr, w, sqrtCeil(n), workers, e)
	if err != nil {
		return nil, err
	}
	defer release()
	inA := hitting.GreedyRows(n, knear.Rows)
	res, err := mssp.RunDirectPanel(ctx, gh, beta, inA, workers)
	if err != nil {
		return nil, err
	}
	e.updPanel(res)
	pvs, dpvs := pivotsAll(knear, inA)
	pcol, q := pivotCols(res, pvs), len(res.Sources)
	// The one-sided §6.1 combine: δ(v,u) = min(δ, d(u,p(u)) + δ̃(v, p(u))).
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if c := pcol[u]; c >= 0 {
				e.upd(v, int32(u), addSat(dpvs[u], res.W[v*q+c]))
			}
		}
	}
	res.Release()
	return e.flat, nil
}

// TwoPlusEpsWeightedDirect is the host-side counterpart of
// TwoPlusEpsWeightedWithHopset for all nodes. gh (G ∪ H, MergeGH's or
// the engine's overlay) and beta come from the eps/2 artifact on G, and
// the result is the flat table, as in ThreePlusEpsDirect.
func TwoPlusEpsWeightedDirect(ctx context.Context, sr semiring.AugMinPlus, w, gh *matrix.Mat[semiring.WH], beta, workers int) ([]int64, error) {
	n := w.N
	// Line (1): edge estimates.
	e := newEstAll(n)
	e.updMatWH(w)
	// Line (2): exact distances to the √n nearest (both directions).
	knear, release, err := exactKNearestAll(ctx, sr, w, sqrtCeil(n), workers, e)
	if err != nil {
		return nil, err
	}
	defer release()
	// Line (3): distances through N_k(u) ∩ N_k(v).
	if err := disttools.FoldThroughSets(ctx, e.rows, knear, whWeight, workers); err != nil {
		return nil, err
	}
	// Line (4): hitting set A of the N_k sets.
	inA := hitting.GreedyRows(n, knear.Rows)
	// Line (5): (1+ε')-approximate MSSP from A over the prebuilt hopset.
	res, err := mssp.RunDirectPanel(ctx, gh, beta, inA, workers)
	if err != nil {
		return nil, err
	}
	e.updPanel(res)
	// Lines (6)-(7): pivots and the symmetric combination.
	pvs, dpvs := pivotsAll(knear, inA)
	pivotCombineAll(e, res, pvs, dpvs)
	res.Release()
	return e.flat, nil
}

// TwoPlusEpsUnweightedDirect is the host-side counterpart of
// TwoPlusEpsUnweightedWithHopsets for all nodes. ghG/betaG come from the
// eps/2 hopset on G and ghLow/betaLow from the eps/2 hopset on the
// low-degree subgraph G', whose weight matrix low the caller builds with
// LowDegreeRow from the preprocessing's |N(v)| vector (and can cache
// across queries, DESIGN.md §13). The result is the flat table, as in
// ThreePlusEpsDirect.
func TwoPlusEpsUnweightedDirect(ctx context.Context, sr semiring.AugMinPlus, w, ghG *matrix.Mat[semiring.WH], betaG int, low, ghLow *matrix.Mat[semiring.WH], betaLow, workers int) ([]int64, error) {
	n := w.N

	// Line (1): edge estimates.
	e := newEstAll(n)
	e.updMatWH(w)

	// --- First phase: shortest paths with a high-degree node. ---

	// Line (2): A hits every high-degree neighborhood (a row includes the
	// diagonal: its length is |N(v)|); a low-degree row is no set.
	high := make([]matrix.Row[semiring.WH], n)
	for v, row := range w.Rows {
		if len(row) >= DegreeThreshold(n) {
			high[v] = row
		}
	}
	inA := hitting.GreedyRows(n, high)
	// Line (3): MSSP from A over the prebuilt G hopset.
	res, err := mssp.RunDirectPanel(ctx, ghG, betaG, inA, workers)
	if err != nil {
		return nil, err
	}
	e.updPanel(res)
	// Line (4): distances through A.
	aRows := res.Rows()
	res.Release()
	if err := disttools.FoldThroughSets(ctx, e.rows, aRows, plainWeight, workers); err != nil {
		return nil, err
	}

	// --- Second phase: shortest paths among low-degree nodes only. ---

	// Line (5): n^{1/4}-nearest in G'.
	kq := int(math.Ceil(math.Pow(float64(n), 0.25)))
	knearLow, release, err := disttools.KNearestLent[semiring.WH](ctx, sr, low, kq, workers)
	if err != nil {
		return nil, err
	}
	defer release()
	e.updMatWH(knearLow)
	// Line (6): distances through N_{k'}(u) ∩ N_{k'}(v).
	if err := disttools.FoldThroughSets(ctx, e.rows, knearLow, whWeight, workers); err != nil {
		return nil, err
	}
	// Line (7): A' hits the N_{k'} sets of G' nodes.
	inA2 := hitting.GreedyRows(n, knearLow.Rows)
	// Line (8): sparse MSSP from A' in G' over the prebuilt G' hopset.
	res2, err := mssp.RunDirectPanel(ctx, ghLow, betaLow, inA2, workers)
	if err != nil {
		return nil, err
	}
	e.updPanel(res2)
	// Lines (9)-(10): pivots p'(v) and the symmetric combination.
	pvs, dpvs := pivotsAll(knearLow, inA2)
	pivotCombineAll(e, res2, pvs, dpvs)
	res2.Release()

	// Lines (11)-(12): the 3-hop triple product M1·M2·M3 over min-plus,
	// its last factor folded straight into the table.
	m1, m2 := plainWeights(knearLow, false), plainWeights(low, true)
	p1 := matmul.KernelMul[int64](plainMinPlus(sr), m1, m2, workers)
	matmul.FoldMinPlus(e.rows, p1, plainWeight, m1.Transpose(), workers)
	return e.flat, nil
}
