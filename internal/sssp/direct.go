package sssp

import (
	"context"
	"math"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// bellmanFordDirect runs the synchronous (Jacobi) Bellman-Ford iteration
// of BellmanFord on the host: vals is the per-round broadcast vector,
// relaxations read the pre-round values, and the convergence test and
// iteration accounting match the collective version exactly - including
// the final extra broadcast when the iteration cap is hit.
func bellmanFordDirect(rows []matrix.Row[semiring.WH], n, src, maxIters int) ([]int64, int) {
	my := make([]int64, n)
	for v := range my {
		my[v] = semiring.Inf
	}
	my[src] = 0
	var prev []int64
	vals := make([]int64, n)
	iters := 0
	for it := 0; it < maxIters; it++ {
		copy(vals, my) // the broadcast: every node sees the same vector
		iters++
		same := prev != nil
		if same {
			for v := range vals {
				if vals[v] != prev[v] {
					same = false
					break
				}
			}
		}
		if same {
			return vals, iters
		}
		prev = append(prev[:0], vals...)
		for v := 0; v < n; v++ {
			for _, e := range rows[v] {
				if int(e.Col) == v {
					continue
				}
				if d := vals[e.Col]; d < semiring.Inf && d+e.Val.W < my[v] {
					my[v] = d + e.Val.W
				}
			}
		}
	}
	out := make([]int64, n)
	copy(out, my)
	return out, iters + 1
}

// ExactDirect is the host-side counterpart of Exact (DESIGN.md §12):
// k-nearest shortcuts computed with the matmul kernels, then the
// synchronous Bellman-Ford on the shortcut graph. The distance vector
// and iteration count are byte-identical to what Exact reports on the
// same (graph, src, k). workers sizes the kernel pool.
func ExactDirect(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], src, k, workers int) ([]int64, int, error) {
	n := w.N
	if k <= 0 {
		k = int(math.Ceil(math.Pow(float64(n), 5.0/6.0)))
	}
	if k > n {
		k = n
	}
	knear, release, err := disttools.KNearestLent[semiring.WH](ctx, sr, w, k, workers)
	if err != nil {
		return nil, 0, err
	}
	defer release() // the shortcut rows copy what they need

	// Shortcut edges {v, u} for u ∈ N_k(v), symmetrized at both endpoints
	// (the collective version routes each edge to its other end).
	shortcuts := make([]matrix.Row[semiring.WH], n)
	for v := 0; v < n; v++ {
		for _, e := range knear.Rows[v] {
			if int(e.Col) == v {
				continue
			}
			shortcuts[v] = append(shortcuts[v], matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val.W, H: 1}})
			shortcuts[e.Col] = append(shortcuts[e.Col], matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{W: e.Val.W, H: 1}})
		}
	}
	rows := make([]matrix.Row[semiring.WH], n)
	for v := 0; v < n; v++ {
		rows[v] = matrix.MergeRows(sr, w.Rows[v], shortcuts[v])
	}

	maxIters := 4*((n+k-1)/k) + 2
	dist, iters := bellmanFordDirect(rows, n, src, maxIters)
	return dist, iters, nil
}
