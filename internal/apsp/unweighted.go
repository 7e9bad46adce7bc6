package apsp

import (
	"math"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// TwoPlusEpsUnweighted computes the (2+ε)-approximate unweighted APSP of
// §6.3 (Theorem 31), returning this node's dense estimate row. The
// algorithm handles shortest paths through high-degree nodes via a
// neighborhood hitting set and MSSP (first phase), and paths confined to
// low-degree nodes via the sparse subgraph G', n^{1/4}-nearest sets, a
// sparse MSSP from an O~(n^{3/4}) hitting set, and the 3-hop triple product
// M1·M2·M3 (second phase).
func TwoPlusEpsUnweighted(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], eps float64, boards *hitting.BoardSeq, hp hopset.Params) ([]int64, error) {
	// Both MSSP stages run at ε' = ε/2 (Lemma 30 yields (2+2ε')). Their
	// hopsets - one on G, one on the low-degree subgraph G' - are built up
	// front so queries can reuse them.
	hpIn := HopsetParams(hp, eps)
	degs := nd.BroadcastVal(int64(len(wrow))) // wrow includes the diagonal: |N(v)|
	hsG, err := hopset.Build(nd, sr, wrow, boards.Next(nd.ID), hpIn)
	if err != nil {
		return nil, err
	}
	lowRow := LowDegreeRow(nd.ID, wrow, degs, DegreeThreshold(nd.N))
	hsLow, err := hopset.Build(nd, sr, lowRow, boards.Next(nd.ID), hpIn)
	if err != nil {
		return nil, err
	}
	return TwoPlusEpsUnweightedWithHopsets(nd, sr, wrow, eps, boards, degs, hsG, hsLow)
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

// TwoPlusEpsUnweightedWithHopsets is the query stage of
// TwoPlusEpsUnweighted against previously built hopsets: hsG on G and
// hsLow on the low-degree subgraph G' (both with params
// HopsetParams(hp, eps)), with degs the broadcast |N(v)| vector from the
// same preprocessing (no degree broadcast happens here).
func TwoPlusEpsUnweightedWithHopsets(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], eps float64, boards *hitting.BoardSeq, degs []int64, hsG, hsLow *hopset.Result) ([]int64, error) {
	n := nd.N

	// Line (1): edge estimates.
	e := newEst(n, nd.ID)
	e.updRowWH(wrow)

	// --- First phase: shortest paths with a high-degree node. ---

	// Degree threshold k = √n; |N(v)| counts v itself (§6.3).
	k := DegreeThreshold(n)
	degPlus := len(wrow) // wrow includes the diagonal, so this is |N(v)|
	highSet := make([]int32, 0, degPlus)
	if degPlus >= k {
		highSet = colsOf(wrow)
	}
	// Line (2): A hits every high-degree neighborhood.
	inA := boards.Next(nd.ID).Hit(nd, highSet)
	// Line (3): MSSP from A over the prebuilt G hopset.
	res, err := mssp.RunWithHopset(nd, sr, wrow, inA, hsG)
	if err != nil {
		return nil, err
	}
	e.updRowWH(res.Dist)
	// Line (4): distances through A - every node's set is its estimates
	// to all of A.
	aEsts := make([]disttools.Est, 0, len(res.Dist))
	for _, en := range res.Dist {
		aEsts = append(aEsts, disttools.Est{W: en.Col, To: en.Val.W, From: en.Val.W})
	}
	dts, err := disttools.DistThroughSets(nd, plainMinPlus(sr), aEsts)
	if err != nil {
		return nil, err
	}
	e.updRow(dts)

	// --- Second phase: shortest paths among low-degree nodes only. ---

	// G' is induced on nodes of degree < k; high-degree nodes have empty
	// rows (they are not in G').
	lowRow := LowDegreeRow(nd.ID, wrow, degs, k)
	// Line (5): n^{1/4}-nearest in G' (exact G'-distances, which upper
	// bound d_G and equal it for all-low shortest paths).
	kq := int(math.Ceil(math.Pow(float64(n), 0.25)))
	knearLow := disttools.KNearest(nd, sr, lowRow, kq)
	e.updRowWH(knearLow)
	// Line (6): distances through N_{k'}(u) ∩ N_{k'}(v).
	dts2, err := disttools.DistThroughSets(nd, plainMinPlus(sr), estsFromRow(knearLow))
	if err != nil {
		return nil, err
	}
	e.updRow(dts2)
	// Line (7): A' hits the N_{k'} sets of G' nodes.
	inA2 := boards.Next(nd.ID).Hit(nd, colsOf(knearLow))
	// Line (8): sparse MSSP from A' in G' over the prebuilt G' hopset
	// (the G' ∪ H graph has O~(n^{3/2}) edges).
	res2, err := mssp.RunWithHopset(nd, sr, lowRow, inA2, hsLow)
	if err != nil {
		return nil, err
	}
	e.updRowWH(res2.Dist)
	mssp2Dense := whToDense(n, res2.Dist)
	// Lines (9)-(10): pivots p'(v) and the symmetric combination.
	pv, dpv := pivotOf(knearLow, inA2)
	pvs, dpvs := broadcastPivots(nd, pv, dpv.W)
	pivotCombine(nd, e, mssp2Dense, pvs, dpvs)

	// Lines (11)-(12): 3-hop paths u - u' - v' - v with u' ∈ N_{k'}(u),
	// v' ∈ N_{k'}(v), {u',v'} ∈ E', via the triple product M1·M2·M3 over
	// min-plus (two Theorem 8 multiplications).
	pm := plainMinPlus(sr)
	m1 := make(matrix.Row[int64], 0, len(knearLow))
	for _, en := range knearLow {
		m1 = append(m1, matrix.Entry[int64]{Col: en.Col, Val: en.Val.W})
	}
	var m2 matrix.Row[int64]
	for _, en := range lowRow {
		if int(en.Col) != nd.ID {
			m2 = append(m2, matrix.Entry[int64]{Col: en.Col, Val: en.Val.W})
		}
	}
	// M3 = M1^T: ship each M1 entry to its column owner (one per link).
	out := make([]cc.Packet, 0, len(m1))
	for _, en := range m1 {
		out = append(out, cc.Packet{Dst: en.Col, M: cc.Msg{A: en.Val}})
	}
	var m3 matrix.Row[int64]
	for _, m := range nd.Sync(out) {
		m3 = append(m3, matrix.Entry[int64]{Col: m.Src, Val: m.A})
	}
	// ρ̂ for M1·M2: each output row has at most k'·maxdeg(G') <= k'·k
	// support entries.
	rho1 := kq * k
	if rho1 > n {
		rho1 = n
	}
	p1, err := matmul.Multiply(nd, pm, m1, m2, rho1)
	if err != nil {
		return nil, err
	}
	p2, err := matmul.Multiply(nd, pm, p1, m3, n)
	if err != nil {
		return nil, err
	}
	e.updRow(p2)
	return e.row, nil
}
