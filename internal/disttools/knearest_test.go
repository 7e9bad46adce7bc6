package disttools_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// lowDegree is the §6.3 subgraph G' of g's weight matrix, as the engine
// builds it: |N(v)| counts v itself, and a node of |N(v)| >= ⌈√n⌉ gets a
// nil row and leaves every other row.
func lowDegree(g *graph.Graph) *matrix.Mat[semiring.WH] {
	w := g.WeightMatrix()
	degs := make([]int64, g.N)
	for v, row := range w.Rows {
		degs[v] = int64(len(row))
	}
	return apsp.LowDegree(w, degs)
}

func checkKNearest(t *testing.T, name string, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH]) {
	t.Helper()
	for _, k := range []int{1, 2, 5, 7, 17, w.N} {
		want := disttools.KNearestAllRef(sr, w, k)
		for _, workers := range []int{1, 2, 4, 0} {
			got, err := disttools.KNearestAll(context.Background(), sr, w, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			disttools.SameRows(t, fmt.Sprintf("%s k=%d workers=%d", name, k, workers), got, want)
		}
	}
}

// TestKNearestAllFixpointEquivalence: the truncated lexicographic
// Dijkstra returns exactly what all ⌈log₂ k⌉ filtered squarings on the
// generic kernel return, over the augmented semiring and over the routed
// one (KNearestRouted over the weights, witnesses included in the
// comparison with the squarings over the lifted weights, checkRouted) on
// every fixpoint family and on its §6.3 subgraph G', whose high-degree
// rows are nil - a search seeded at its source instead of its row would
// answer {v} there.
func TestKNearestAllFixpointEquivalence(t *testing.T) {
	for name, g := range disttools.FixpointGraphs() {
		checkKNearest(t, name+"/WH", g.AugSemiring(), g.WeightMatrix())
		low := lowDegree(g)
		checkKNearest(t, name+"/G'/WH", g.AugSemiring(), low)
		for _, k := range []int{1, 2, 5, 7, 17, g.N} {
			disttools.CheckRouted(t, name, g, g.WeightMatrix(), k)
			disttools.CheckRouted(t, name+"/G'", g, low, k)
		}
	}
}
