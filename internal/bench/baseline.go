// The prior-work comparison points of §1.1 that E10 and E12 measure:
// exact APSP by iterated squaring of the augmented weight matrix over the
// dense 3D semiring multiplication of Censor-Hillel et al. [13] (O(n^{1/3})
// rounds per product), and plain distributed Bellman-Ford SSSP (SPD
// rounds). Sequential ground truth lives in package graph.

package bench

import (
	"context"
	"fmt"
	"math/bits"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/sssp"
)

// denseAPSP computes exact APSP by squaring the augmented weight matrix
// ceil(log2 n) times with output density n - which makes Theorem 8's cube
// partition degenerate to the classic 3D multiplication of [13] with
// a = b = c = n^{1/3} and O(n^{1/3}) rounds per product. Returns this
// node's row of exact distances, semiring.Inf where unreachable.
func denseAPSP(nd *cc.Node, sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH]) ([]int64, error) {
	cur := wrow
	for t := 0; t < bits.Len(uint(nd.N-1)); t++ {
		next, err := matmul.Multiply(nd, sr, cur, cur, nd.N)
		if err != nil {
			return nil, fmt.Errorf("baseline: squaring %d: %w", t, err)
		}
		cur = next
	}
	dense := make([]int64, nd.N)
	for i := range dense {
		dense[i] = semiring.Inf
	}
	for _, e := range cur {
		dense[e.Col] = e.Val.W
	}
	return dense, nil
}

// bellmanFordSSSP is the baseline exact SSSP without shortcuts: plain
// distributed Bellman-Ford on G, converging in SPD(G) rounds. Returns the
// global distance vector, the iterations used and the run's Stats.
func bellmanFordSSSP(c Config, g *graph.Graph, src int) ([]int64, int, cc.Stats, error) {
	w := g.WeightMatrix()
	cl := clique.NewSim(context.Background(), engineCfg(c, g.N), g.AugSemiring(), w, nil)
	dist, iters, err := sssp.BellmanFord(cl, w.Rows, src, g.N+2)
	return dist, iters, cl.Stats, err
}
