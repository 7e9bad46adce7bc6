// Package apsp implements the paper's all-pairs shortest path
// approximations (§6): the (3+ε)-approximation (§6.1), the
// (2+ε, (1+ε)W)-approximation for weighted graphs (§6.2, Theorem 28), and
// the (2+ε)-approximation for unweighted graphs (§6.3, Theorem 31). All are
// deterministic and run in O(log²n/ε) rounds.
package apsp

import (
	"math"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// addSat adds distance estimates, saturating at infinity.
func addSat(a, b int64) int64 {
	if a >= semiring.Inf || b >= semiring.Inf {
		return semiring.Inf
	}
	return a + b
}

// est is one node's dense estimate row with monotone min updates.
type est struct {
	row []int64
}

func newEst(n, self int) *est {
	r := make([]int64, n)
	for i := range r {
		r[i] = semiring.Inf
	}
	r[self] = 0
	return &est{row: r}
}

func (e *est) upd(u int32, v int64) {
	if v < e.row[u] {
		e.row[u] = v
	}
}

func (e *est) updRowWH(r matrix.Row[semiring.WH]) {
	for _, en := range r {
		e.upd(en.Col, en.Val.W)
	}
}

func (e *est) updRow(r matrix.Row[int64]) {
	for _, en := range r {
		e.upd(en.Col, en.Val)
	}
}

// exactKNearest computes the √n-nearest with exact distances and applies
// the symmetric update ("if v ∈ N_k(u), u sends d(u,v) to v").
func exactKNearest(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], k int, e *est) matrix.Row[semiring.WH] {
	knear := disttools.KNearest(nd, sr, wrow, k)
	e.updRowWH(knear)
	out := make([]cc.Packet, 0, len(knear))
	for _, en := range knear {
		if int(en.Col) != nd.ID {
			out = append(out, cc.Packet{Dst: en.Col, M: cc.Msg{A: en.Val.W}})
		}
	}
	for _, m := range nd.Route(out) {
		e.upd(m.Src, m.A)
	}
	return knear
}

// pivotOf returns the closest hitting-set member within the k-nearest set.
func pivotOf(knear matrix.Row[semiring.WH], inA []bool) (int32, semiring.WH) {
	pv, dpv := int32(-1), semiring.InfWH
	for _, e := range knear {
		if inA[e.Col] && semiring.LessWH(e.Val, dpv) {
			pv, dpv = e.Col, e.Val
		}
	}
	return pv, dpv
}

// broadcastPivots shares (p(v), d(v,p(v))) of every node in two broadcast
// rounds.
func broadcastPivots(nd *cc.Node, pv int32, dpv int64) (pvs []int64, dpvs []int64) {
	return nd.BroadcastVal(int64(pv)), nd.BroadcastVal(dpv)
}

// pivotCombine applies the final estimate updates of §6.2 line (7) /
// §6.3 line (10): δ(u,v) = min(δ(u,v), δ(u,p(u)) + δ̃(p(u),v),
// δ(v,p(v)) + δ̃(p(v),u)). Node v knows δ̃(v, a) for every a (its
// msspDist); the cross terms δ̃(u, p(v)) arrive in one personalized round.
func pivotCombine(nd *cc.Node, e *est, msspDist []int64, pvs, dpvs []int64) {
	n := nd.N
	// Send δ̃(me, p(v)) to every v.
	out := make([]cc.Packet, 0, n)
	for v := 0; v < n; v++ {
		val := semiring.Inf
		if pv := pvs[v]; pv >= 0 {
			val = msspDist[pv]
		}
		out = append(out, cc.Packet{Dst: int32(v), M: cc.Msg{A: val}})
	}
	for _, m := range nd.Sync(out) {
		u := m.Src
		// Term δ(v,p(v)) + δ̃(p(v),u): my pivot distance plus u's distance
		// to my pivot.
		if pvs[nd.ID] >= 0 {
			e.upd(u, addSat(dpvs[nd.ID], m.A))
		}
		// Term δ(u,p(u)) + δ̃(p(u),v): u's pivot distance plus my distance
		// to u's pivot.
		if pu := pvs[u]; pu >= 0 {
			e.upd(u, addSat(dpvs[u], msspDist[pu]))
		}
	}
}

// whToDense extracts a dense distance slice from an augmented row.
func whToDense(n int, r matrix.Row[semiring.WH]) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = semiring.Inf
	}
	for _, e := range r {
		out[e.Col] = e.Val.W
	}
	return out
}

// estsFromRow converts exact (symmetric) distance entries into
// distance-through-sets inputs.
func estsFromRow(r matrix.Row[semiring.WH]) []disttools.Est {
	ests := make([]disttools.Est, 0, len(r))
	for _, e := range r {
		ests = append(ests, disttools.Est{W: e.Col, To: e.Val.W, From: e.Val.W})
	}
	return ests
}

func sqrtCeil(n int) int {
	k := int(math.Ceil(math.Sqrt(float64(n))))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// HopsetParams derives the hopset parameterization the §6 APSP
// algorithms use from the target stretch ε: the inner MSSP runs at
// ε' = ε/2 (Lemma 27 / Lemma 30). Preprocessing that wants to reuse one
// hopset across the ...WithHopset variants must build it with these
// params.
func HopsetParams(hp hopset.Params, eps float64) hopset.Params {
	hp.Eps = eps / 2
	return hp
}

// ThreePlusEps computes the (3+ε)-approximate weighted APSP of §6.1,
// returning this node's dense estimate row. All nodes pass identical eps
// and params; boards supplies the hitting-set invocations.
func ThreePlusEps(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], eps float64, boards *hitting.BoardSeq, hp hopset.Params) ([]int64, error) {
	// δ(u,v) <= d(u,p(u)) + (1+ε')(2d) <= (3+2ε')d for ε' = ε/2.
	hs, err := hopset.Build(nd, sr, wrow, boards.Next(nd.ID), HopsetParams(hp, eps))
	if err != nil {
		return nil, err
	}
	return ThreePlusEpsWithHopset(nd, sr, wrow, eps, boards, hs)
}

// ThreePlusEpsWithHopset is the query stage of ThreePlusEps against a
// previously built hopset (params HopsetParams(hp, eps) on G).
func ThreePlusEpsWithHopset(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], eps float64, boards *hitting.BoardSeq, hs *hopset.Result) ([]int64, error) {
	n := nd.N
	e := newEst(n, nd.ID)
	e.updRowWH(wrow)
	k := sqrtCeil(n)
	knear := exactKNearest(nd, sr, wrow, k, e)

	sv := colsOf(knear)
	inA := boards.Next(nd.ID).Hit(nd, sv)

	res, err := mssp.RunWithHopset(nd, sr, wrow, inA, hs)
	if err != nil {
		return nil, err
	}
	e.updRowWH(res.Dist)
	msspDense := whToDense(n, res.Dist)

	pv, dpv := pivotOf(knear, inA)
	pvs, dpvs := broadcastPivots(nd, pv, dpv.W)
	// δ(v,u) = min(δ, d(u,p(u)) + δ̃(v, p(u))) - no personalized exchange
	// needed for the one-sided §6.1 estimate.
	for u := 0; u < n; u++ {
		if pu := pvs[u]; pu >= 0 {
			e.upd(int32(u), addSat(dpvs[u], msspDense[pu]))
		}
	}
	return e.row, nil
}

func colsOf(r matrix.Row[semiring.WH]) []int32 {
	cols := make([]int32, 0, len(r))
	for _, e := range r {
		cols = append(cols, e.Col)
	}
	return cols
}

// TwoPlusEpsWeighted computes the (2+ε, (1+ε)W)-approximate weighted APSP
// of §6.2 (Theorem 28): for every pair, the estimate is at most
// (2+ε)d(u,v) + (1+ε)W where W is the heaviest edge on a shortest u-v path.
func TwoPlusEpsWeighted(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], eps float64, boards *hitting.BoardSeq, hp hopset.Params) ([]int64, error) {
	// The hopset backing line (5)'s MSSP runs at ε' = ε/2 (Lemma 27
	// yields (2+2ε')d + (1+ε')W); building it up front keeps it reusable.
	hs, err := hopset.Build(nd, sr, wrow, boards.Next(nd.ID), HopsetParams(hp, eps))
	if err != nil {
		return nil, err
	}
	return TwoPlusEpsWeightedWithHopset(nd, sr, wrow, eps, boards, hs)
}

// TwoPlusEpsWeightedWithHopset is the query stage of TwoPlusEpsWeighted
// against a previously built hopset (params HopsetParams(hp, eps) on G):
// everything except the §4 hopset construction.
func TwoPlusEpsWeightedWithHopset(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], eps float64, boards *hitting.BoardSeq, hs *hopset.Result) ([]int64, error) {
	n := nd.N
	// Line (1): edge estimates.
	e := newEst(n, nd.ID)
	e.updRowWH(wrow)
	// Line (2): exact distances to the √n nearest (both directions).
	nd.Phase("apsp/k-nearest")
	k := sqrtCeil(n)
	knear := exactKNearest(nd, sr, wrow, k, e)
	// Line (3): distances through N_k(u) ∩ N_k(v).
	nd.Phase("apsp/dist-through-sets")
	dts, err := disttools.DistThroughSets(nd, plainMinPlus(sr), estsFromRow(knear))
	if err != nil {
		return nil, err
	}
	e.updRow(dts)
	// Line (4): hitting set A of the N_k sets.
	nd.Phase("apsp/hitting-set")
	inA := boards.Next(nd.ID).Hit(nd, colsOf(knear))
	// Line (5): (1+ε')-approximate MSSP from A over the prebuilt hopset.
	res, err := mssp.RunWithHopset(nd, sr, wrow, inA, hs)
	if err != nil {
		return nil, err
	}
	e.updRowWH(res.Dist)
	msspDense := whToDense(n, res.Dist)
	// Lines (6)-(7): pivots and the symmetric combination.
	nd.Phase("apsp/pivot-combine")
	pv, dpv := pivotOf(knear, inA)
	pvs, dpvs := broadcastPivots(nd, pv, dpv.W)
	pivotCombine(nd, e, msspDense, pvs, dpvs)
	return e.row, nil
}

// plainMinPlus derives the plain min-plus semiring with value bound
// matching the augmented one.
func plainMinPlus(sr semiring.AugMinPlus) semiring.MinPlus {
	return semiring.NewMinPlus(sr.MaxW + 1)
}
