package hopset

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// BuildDirect constructs the §4 hopset on the host: the same algorithm
// as the collective Build, computed for all nodes at once on the full
// augmented weight matrix w with the matmul kernels (DESIGN.md §12). The
// returned Artifact is byte-identical to Collect over a collective
// Build's per-node Results on the same (graph, params): every step -
// parameter derivation, k-nearest, the greedy hitting set, bunch-edge
// selection, per-level source detection, and the row merges - mirrors
// Build exactly, and each underlying kernel equals its distributed
// counterpart entry-for-entry.
//
// workers sizes the kernel worker pool (<= 0 means GOMAXPROCS); the
// result is identical for every value. ctx is checked between product
// iterations, so a canceled build unwinds within one multiply.
func BuildDirect(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], p Params, workers int) (*Artifact, error) {
	n := w.N
	if p.Eps <= 0 || p.Eps > 1 {
		return nil, fmt.Errorf("hopset: invalid eps %v", p.Eps)
	}
	// Parameter derivation, identical to Build.
	k := p.K
	if k == 0 {
		k = int(math.Ceil(math.Sqrt(float64(n)) * math.Log2(float64(n)+1)))
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	levels := p.Levels
	if levels == 0 {
		levels = bits.Len(uint(n - 1)) // ceil(log2 n)
	}
	if levels < 1 {
		levels = 1
	}
	bf := p.BetaFactor
	if bf == 0 {
		bf = 12
	}
	beta := int(math.Ceil(bf * float64(levels) / p.Eps))
	if beta < 3 {
		beta = 3
	}
	hopCap := p.HopCap
	if hopCap == 0 {
		hopCap = n
	}
	d := 4 * beta
	if d > hopCap {
		d = hopCap
	}
	if d < 1 {
		d = 1
	}

	// Bunch computation via k-nearest (§4.2.1), all rows at once.
	knear, err := disttools.KNearestAll[semiring.WH](ctx, sr, w, k, workers)
	if err != nil {
		return nil, fmt.Errorf("hopset: k-nearest: %w", err)
	}
	sets := make([][]int32, n)
	for v := 0; v < n; v++ {
		sv := make([]int32, 0, len(knear.Rows[v]))
		for _, e := range knear.Rows[v] {
			sv = append(sv, e.Col)
		}
		sets[v] = sv
	}
	inA1 := hitting.Greedy(n, sets)

	art := &Artifact{
		N:    n,
		Beta: beta,
		K:    k,
		InA1: inA1,
		Rows: make([]matrix.Row[semiring.WH], n),
		PV:   make([]int32, n),
		DPV:  make([]semiring.WH, n),
	}
	// p(v): the closest A_1 node within N_k(v).
	for v := 0; v < n; v++ {
		art.PV[v], art.DPV[v] = -1, semiring.InfWH
		for _, e := range knear.Rows[v] {
			if inA1[e.Col] && semiring.LessWH(e.Val, art.DPV[v]) {
				art.PV[v] = e.Col
				art.DPV[v] = e.Val
			}
		}
	}

	// H_0: bunch edges of nodes outside A_1, symmetrized at both
	// endpoints (the collective version routes each edge to its other
	// end; here we append to both rows directly - MergeRows makes the
	// accumulation order irrelevant).
	h0 := make([]matrix.Row[semiring.WH], n)
	for v := 0; v < n; v++ {
		if inA1[v] || art.PV[v] < 0 {
			continue
		}
		for _, e := range knear.Rows[v] {
			if e.Col == int32(v) {
				continue
			}
			if e.Val.W < art.DPV[v].W || e.Col == art.PV[v] {
				h0[v] = append(h0[v], matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val.W, H: 1}})
				h0[e.Col] = append(h0[e.Col], matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{W: e.Val.W, H: 1}})
			}
		}
	}
	for v := 0; v < n; v++ {
		h0[v] = matrix.MergeRows(sr, h0[v])
	}

	// Iterated bounded hopsets (§4.2.1): level ℓ computes d-hop distances
	// between A_1 nodes in G ∪ H^{ℓ-1} and replaces the A_1 clique edges
	// with the improved estimates, exactly like the collective loop. Only
	// A_1 rows carry clique edges, so a level re-merges just the rows whose
	// clique edges it changed; one that changes none leaves every later
	// level's input, hence output, identical and ends the loop (DESIGN.md
	// §13, "the fast build path").
	aRows := make([]matrix.Row[semiring.WH], n)
	g := matrix.New[semiring.WH](n)
	for v := 0; v < n; v++ {
		g.Rows[v] = matrix.MergeRows(sr, w.Rows[v], h0[v])
	}
	for level := 0; level < levels; level++ {
		det, err := disttools.SourceDetectAllRestricted(ctx, g, inA1, d, workers)
		if err != nil {
			return nil, fmt.Errorf("hopset: level %d source detection: %w", level, err)
		}
		fresh := make([]matrix.Row[semiring.WH], n)
		for v := 0; v < n; v++ {
			if !inA1[v] {
				continue
			}
			for _, e := range det.Rows[v] {
				if e.Col == int32(v) {
					continue
				}
				fresh[v] = append(fresh[v], matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val, H: 1}})
				fresh[e.Col] = append(fresh[e.Col], matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{W: e.Val, H: 1}})
			}
		}
		changed := false
		for v := 0; v < n; v++ {
			row := matrix.MergeRows(sr, fresh[v])
			if slices.Equal(row, aRows[v]) {
				continue
			}
			changed = true
			aRows[v] = row
			g.Rows[v] = matrix.MergeRows(sr, w.Rows[v], h0[v], row)
		}
		if !changed {
			break
		}
	}

	for v := 0; v < n; v++ {
		art.Rows[v] = matrix.MergeRows(sr, h0[v], aRows[v])
	}
	return art, nil
}
