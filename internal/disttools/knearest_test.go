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

// routed gives every entry of w its first hop as witness, -1 on the
// diagonal, as graph.WeightRowRouted does.
func routed(w *matrix.Mat[semiring.WH]) *matrix.Mat[semiring.WHF] {
	m := matrix.New[semiring.WHF](w.N)
	for v, row := range w.Rows {
		for _, e := range row {
			fh := e.Col
			if int(fh) == v {
				fh = -1
			}
			m.Rows[v] = append(m.Rows[v], matrix.Entry[semiring.WHF]{Col: e.Col, Val: semiring.WHF{W: e.Val.W, H: e.Val.H, FH: fh}})
		}
	}
	return m
}

func checkKNearest[E comparable](t *testing.T, name string, sr semiring.Ordered[E], w *matrix.Mat[E]) {
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
// one (witnesses included in the comparison), on every fixpoint family
// and on its §6.3 subgraph G', whose high-degree rows are nil - a search
// seeded at its source instead of its row would answer {v} there.
func TestKNearestAllFixpointEquivalence(t *testing.T) {
	for name, g := range disttools.FixpointGraphs() {
		checkKNearest[semiring.WH](t, name+"/WH", g.AugSemiring(), g.WeightMatrix())
		checkKNearest[semiring.WHF](t, name+"/WHF", g.RoutedSemiring(), disttools.RoutedMatrix(g))
		low := lowDegree(g)
		checkKNearest[semiring.WH](t, name+"/G'/WH", g.AugSemiring(), low)
		checkKNearest[semiring.WHF](t, name+"/G'/WHF", g.RoutedSemiring(), routed(low))
	}
}
