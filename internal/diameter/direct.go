package diameter

import (
	"context"
	"fmt"
	"math"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// ApproxDirect is the host-side counterpart of ApproxWithHopset
// (DESIGN.md §12): the same Roditty-Vassilevska Williams scheme computed
// on the full weight matrix with the matmul kernels. The estimate is
// byte-identical to the collective version against the same artifact;
// every step - the k-nearest sets, the greedy hitting set, the pivot
// argmax tie-breaking, the N_k(w) membership and both MSSP stages -
// mirrors it exactly. gh and beta come from the artifact: gh is G ∪ H,
// either mssp.MergeGH(sr, w, art) or the engine's cached overlay
// (hopset.OverlayRow), which detects the same (DESIGN.md §13, "One copy
// of G ∪ H"), and beta = art.Beta. workers sizes the kernel pool.
func ApproxDirect(ctx context.Context, sr semiring.AugMinPlus, w, gh *matrix.Mat[semiring.WH], beta, workers int) (int64, error) {
	n := w.N
	// Line (1): distances to the k nearest, k = O~(√n).
	k := int(math.Ceil(math.Sqrt(float64(n)) * math.Log2(float64(n)+1)))
	if k > n {
		k = n
	}
	knear, release, err := disttools.KNearestLent[semiring.WH](ctx, sr, w, k, workers)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	defer release()
	// Line (2): hitting set S.
	inS := hitting.GreedyRows(n, knear.Rows)
	// Line (3): MSSP from S over the shared hopset.
	res, err := mssp.RunDirectMerged(ctx, gh, beta, inS, workers)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	// Line (4): pivot distances d(v, p(v)), 0 for nodes with no pivot.
	dpvs := make([]int64, n)
	for v := 0; v < n; v++ {
		dpv := semiring.InfWH
		for _, e := range knear.Rows[v] {
			if inS[e.Col] && semiring.LessWH(e.Val, dpv) {
				dpv = e.Val
			}
		}
		if dpv.W < semiring.Inf {
			dpvs[v] = dpv.W
		}
	}
	// Line (5): w maximizes d(v, p(v)), ties to the smallest ID; N_k(w)
	// membership is the columns of w's k-nearest row plus w itself.
	wNode := 0
	for v := 1; v < n; v++ {
		if dpvs[v] > dpvs[wNode] {
			wNode = v
		}
	}
	inNkwAll := make([]bool, n)
	for _, e := range knear.Rows[wNode] {
		inNkwAll[e.Col] = true
	}
	inNkwAll[wNode] = true
	res2, err := mssp.RunDirectMerged(ctx, gh, beta, inNkwAll, workers)
	if err != nil {
		return 0, fmt.Errorf("diameter: second MSSP: %w", err)
	}
	// Line (6): the estimate is the maximum finite distance in either MSSP.
	var best int64
	for _, m := range []*matrix.Mat[int64]{res, res2} {
		for v := 0; v < n; v++ {
			for _, e := range m.Rows[v] {
				if e.Val < semiring.Inf && e.Val > best {
					best = e.Val
				}
			}
		}
	}
	return best, nil
}
