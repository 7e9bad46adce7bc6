// Package hopset implements the paper's deterministic hopset construction
// (§4, Theorem 25): a variant of the Elkin-Neiman construction [24] built
// from the distance tools, producing a (β, ε)-hopset of O(n^{3/2} log n)
// edges with β = O(log n / ε) in O(log²n / ε) rounds, independent of the
// hopset size.
package hopset

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Params configures the construction.
type Params struct {
	// Eps is the target stretch parameter ε' of the final (β, ε')-hopset.
	Eps float64
	// K is the neighborhood size for bunches; 0 means ceil(√n·log2 n)
	// (§4.1), which makes the hitting set A_1 of size O(√n).
	K int
	// Levels is the number of doubling levels; 0 means ceil(log2 n).
	Levels int
	// BetaFactor scales β = ceil(BetaFactor·Levels/Eps). The proof of
	// Lemma 24 uses 12 (δ = ε/4 per level, β = 3/δ); the Practical preset
	// uses a smaller constant whose guarantee is checked empirically.
	BetaFactor float64
	// HopCap caps the source-detection hop limit 4β (paths never need
	// more than n-1 hops); 0 means n.
	HopCap int
}

// Paper returns the proof-faithful parameters of Theorem 25.
func Paper(eps float64) Params { return Params{Eps: eps, BetaFactor: 12} }

// Practical returns parameters with a smaller hop budget; the stretch
// guarantee is then validated empirically (EXPERIMENTS.md, E6) rather than
// by the Lemma 24 constants. Used by larger benchmarks.
func Practical(eps float64) Params { return Params{Eps: eps, BetaFactor: 2} }

// Result is one node's share of the hopset.
type Result struct {
	// Row holds this node's hopset edges as augmented entries (weight =
	// the discovered distance estimate, hop count 1). Symmetric across
	// endpoints.
	Row matrix.Row[semiring.WH]
	// Beta is the hop bound β of the (β, ε)-hopset guarantee.
	Beta int
	// InA1 marks the hitting-set nodes (shared read-only).
	InA1 []bool
	// K is the neighborhood size used for bunches.
	K int
	// PV is p(v): the A_1 node closest to this node, and DPV its distance
	// (§4.1); PV = -1 only if the node is isolated.
	PV  int32
	DPV semiring.WH
}

// shape is what Params derive to on n nodes, identically for Build and
// BuildDirect: the bunch size k (the only parameter the bunch stage reads),
// the level count, the hop bound β and the per-level detection depth d.
type shape struct{ k, levels, beta, d int }

func (p Params) shape(n int) (shape, error) {
	if p.Eps <= 0 || p.Eps > 1 {
		return shape{}, fmt.Errorf("hopset: invalid eps %v", p.Eps)
	}
	k := p.K
	if k == 0 {
		k = int(math.Ceil(math.Sqrt(float64(n)) * math.Log2(float64(n)+1)))
	}
	k = max(min(k, n), 1)
	levels := p.Levels
	if levels == 0 {
		levels = bits.Len(uint(n - 1)) // ceil(log2 n)
	}
	levels = max(levels, 1)
	bf := p.BetaFactor
	if bf == 0 {
		bf = 12
	}
	beta := max(int(math.Ceil(bf*float64(levels)/p.Eps)), 3)
	hopCap := p.HopCap
	if hopCap == 0 {
		hopCap = n
	}
	return shape{k: k, levels: levels, beta: beta, d: max(min(4*beta, hopCap), 1)}, nil
}

// Check reports an artifact whose K or Beta is not what p derives to on
// its N, as every build at p writes them.
func (p Params) Check(a *Artifact) error {
	sh, err := p.shape(a.N)
	if err != nil {
		return err
	}
	if a.K != sh.k || a.Beta != sh.beta {
		return fmt.Errorf("hopset: artifact has k=%d, beta=%d; its params give k=%d, beta=%d on n=%d", a.K, a.Beta, sh.k, sh.beta, a.N)
	}
	return nil
}

// Build constructs the hopset collectively (all nodes call it with
// identical params). wrow is row nd.ID of the augmented weight matrix of G;
// board is a fresh hitting-set board shared by all nodes.
func Build(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], board *hitting.Board, p Params) (*Result, error) {
	sh, err := p.shape(nd.N)
	if err != nil {
		return nil, err
	}
	k, levels, beta, d := sh.k, sh.levels, sh.beta, sh.d

	// Bunch computation via k-nearest (§4.2.1): each node learns exact
	// distances to its k closest nodes.
	nd.Phase("hopset/k-nearest")
	knear := disttools.KNearest(nd, sr, wrow, k)
	sv := make([]int32, 0, len(knear))
	for _, e := range knear {
		sv = append(sv, e.Col)
	}
	inA1 := board.Hit(nd, sv)

	res := &Result{Beta: beta, InA1: inA1, K: k, PV: -1, DPV: semiring.InfWH}
	// p(v): the closest A_1 node within N_k(v); exists because A_1 hits
	// every nonempty N_k(v) (which always contains v itself).
	for _, e := range knear {
		if inA1[e.Col] && semiring.LessWH(e.Val, res.DPV) {
			res.PV = e.Col
			res.DPV = e.Val
		}
	}

	// H_0: bunch edges of nodes outside A_1 - everything strictly closer
	// than p(v), plus p(v) itself, with exact weights (§4.1). Symmetrized
	// by routing each edge to its other endpoint.
	nd.Phase("hopset/bunches")
	var h0 matrix.Row[semiring.WH]
	var out []cc.Packet
	if !inA1[nd.ID] && res.PV >= 0 {
		for _, e := range knear {
			if e.Col == int32(nd.ID) {
				continue
			}
			if e.Val.W < res.DPV.W || e.Col == res.PV {
				h0 = append(h0, matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val.W, H: 1}})
				out = append(out, cc.Packet{Dst: e.Col, M: cc.Msg{A: e.Val.W}})
			}
		}
	}
	for _, m := range nd.Route(out) {
		h0 = append(h0, matrix.Entry[semiring.WH]{Col: m.Src, Val: semiring.WH{W: m.A, H: 1}})
	}
	h0 = matrix.MergeRows(sr, h0)

	// Iterated bounded hopsets (§4.2.1): level ℓ computes 4β-hop distances
	// between A_1 nodes in G' = G ∪ H^{ℓ-1} and replaces the A_1 clique
	// edges with the improved estimates.
	nd.Phase("hopset/levels")
	var aRow matrix.Row[semiring.WH]
	for level := 0; level < levels; level++ {
		gRow := matrix.MergeRows(sr, wrow, h0, aRow)
		det, err := disttools.SourceDetect(nd, sr, gRow, inA1, d)
		if err != nil {
			return nil, fmt.Errorf("hopset: level %d source detection: %w", level, err)
		}
		var fresh matrix.Row[semiring.WH]
		var sym []cc.Packet
		if inA1[nd.ID] {
			for _, e := range det {
				if e.Col == int32(nd.ID) {
					continue
				}
				fresh = append(fresh, matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val.W, H: 1}})
				sym = append(sym, cc.Packet{Dst: e.Col, M: cc.Msg{A: e.Val.W}})
			}
		}
		// Symmetrize within A_1 (the paper lets both endpoints learn each
		// added edge); distances are symmetric in undirected graphs, so
		// this is a min-merge.
		for _, m := range nd.Route(sym) {
			fresh = append(fresh, matrix.Entry[semiring.WH]{Col: m.Src, Val: semiring.WH{W: m.A, H: 1}})
		}
		aRow = matrix.MergeRows(sr, fresh)
	}

	res.Row = matrix.MergeRows(sr, h0, aRow)
	return res, nil
}

// GraphRow returns this node's row of the augmented weight matrix of G ∪ H.
func (r *Result) GraphRow(sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH]) matrix.Row[semiring.WH] {
	return matrix.MergeRows(sr, wrow, r.Row)
}
