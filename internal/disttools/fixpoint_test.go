package disttools

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// fixpointGraphs are the families the fixpoint exits and the hop
// certificate are pinned on: weighted and unit-weight (rank ties
// everywhere; a unit clique ties every row at every rank), sparse and
// dense, a long path (converges late), a disconnected graph (rows that
// never fill up to k), zero-weight edges (a lighter node can sit more
// hops away) and paths and a star whose every edge is the heaviest the
// engine admits (keys at the top of the packed range).
func fixpointGraphs() map[string]*graph.Graph {
	path := graph.New(33)
	for v := 1; v < path.N; v++ {
		path.MustAddEdge(v-1, v, 1)
	}
	split := graph.New(26) // components {0..13} and {14..25}
	rng := rand.New(rand.NewSource(44))
	for v := 1; v < split.N; v++ {
		if v == 14 {
			continue
		}
		lo := 0
		if v > 14 {
			lo = 14
		}
		split.MustAddEdge(v, lo+rng.Intn(v-lo), rng.Int63n(9)+1)
	}
	zero := graph.New(30)
	for v := 1; v < zero.N; v++ {
		zero.MustAddEdge(v, rng.Intn(v), rng.Int63n(3)) // a third of them weigh 0
	}
	for e := 0; e < 20; e++ {
		if u, v := rng.Intn(zero.N), rng.Intn(zero.N); u != v {
			zero.MustAddEdge(u, v, rng.Int63n(3))
		}
	}
	clique := graph.New(16)
	for v := 0; v < clique.N; v++ {
		for u := v + 1; u < clique.N; u++ {
			clique.MustAddEdge(v, u, 1)
		}
	}
	graphs := map[string]*graph.Graph{
		"sparse":       randGraph(32, 16, 20, 41),
		"dense":        randGraph(24, 120, 50, 42),
		"tree":         randGraph(28, 0, 20, 43),
		"unit-weight":  randGraph(32, 40, 1, 45),
		"unit-clique":  clique,
		"unit-path":    path,
		"disconnected": split,
		"zero-weight":  zero,
		"max-star-8":   maxWeightStar(8),
	}
	for _, n := range []int{3, 8, 64} {
		graphs[fmt.Sprintf("max-path-%d", n)] = maxWeightPath(n)
	}
	return graphs
}

// maxWeightPath is the path on n nodes with every edge at
// graph.MaxWeightFor(n).
func maxWeightPath(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, graph.MaxWeightFor(n))
	}
	return g
}

// maxWeightStar is the star on n nodes, center 0, with every edge at
// graph.MaxWeightFor(n).
func maxWeightStar(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, graph.MaxWeightFor(n))
	}
	return g
}

// routedMatrix is the routed (first-hop witness) weight matrix of g.
func routedMatrix(g *graph.Graph) *matrix.Mat[semiring.WHF] {
	m := matrix.New[semiring.WHF](g.N)
	for v := 0; v < g.N; v++ {
		m.Rows[v] = g.WeightRowRouted(v)
	}
	return m
}

// sameRows asserts entry-for-entry equality, entry order included.
func sameRows[E comparable](t *testing.T, what string, got, want *matrix.Mat[E]) {
	t.Helper()
	for v := 0; v < want.N; v++ {
		if !slices.Equal(got.Rows[v], want.Rows[v]) {
			t.Errorf("%s: row %d = %v, want %v", what, v, got.Rows[v], want.Rows[v])
			return
		}
	}
}

// knearestAllRef is KNearestAll without the fixpoint exit: all ⌈log₂ k⌉
// filtered squarings of Theorem 18, on the generic reference kernel.
func knearestAllRef[E any](sr semiring.Ordered[E], w *matrix.Mat[E], k int) *matrix.Mat[E] {
	k = max(1, min(k, w.N))
	cur := matrix.Filter(sr, w, k)
	for t := 0; t < bits.Len(uint(k-1)); t++ {
		cur = matmul.KernelMulFilteredGeneric(sr, cur, cur, k, 1)
	}
	return cur
}

func checkKNearestFixpoint[E comparable](t *testing.T, name string, sr semiring.Ordered[E], w *matrix.Mat[E]) {
	t.Helper()
	for _, k := range []int{1, 2, 5, 7, 17, w.N} {
		want := knearestAllRef(sr, w, k)
		for _, workers := range []int{1, 2, 4, 0} {
			got, err := KNearestAll(context.Background(), sr, w, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%s k=%d workers=%d", name, k, workers), got, want)
		}
	}
}

// TestKNearestAllFixpointEquivalence: stopping at the first unchanged
// squaring, and copying the rows the hop certificate settles, returns
// exactly what all ⌈log₂ k⌉ squarings on the generic kernel return, over
// both the augmented semiring (packed kernel and certificate) and the
// routed one (generic kernel, fixpoint exit only, witnesses included in
// the comparison).
func TestKNearestAllFixpointEquivalence(t *testing.T) {
	for name, g := range fixpointGraphs() {
		checkKNearestFixpoint[semiring.WH](t, name+"/WH", g.AugSemiring(), g.WeightMatrix())
		checkKNearestFixpoint[semiring.WHF](t, name+"/WHF", g.RoutedSemiring(), routedMatrix(g))
	}
}

// sourceDetectKAllRef is SourceDetectKLent without the fixpoint exit: all
// d-1 filtered products of Theorem 19, on the generic reference kernel.
func sourceDetectKAllRef[E any](sr semiring.Ordered[E], w *matrix.Mat[E], inS []bool, d, k int) *matrix.Mat[E] {
	k = max(1, min(k, w.N))
	u := matrix.New[E](w.N)
	for v, r := range w.Rows {
		var row matrix.Row[E]
		for _, e := range r {
			if inS[e.Col] {
				row = append(row, e)
			}
		}
		u.Rows[v] = matrix.FilterRow(sr, row, k)
	}
	for i := 1; i < d; i++ {
		u = matmul.KernelMulFilteredGeneric(sr, w, u, k, 1)
	}
	return u
}

// TestSourceDetectKAllFixpointEquivalence: the same exit in
// u ← Filter(w·u, k), against all d-1 products, from d=1 (no product) to
// d=n (what a source_detection request clamps to).
func TestSourceDetectKAllFixpointEquivalence(t *testing.T) {
	for name, g := range fixpointGraphs() {
		sr, w := g.AugSemiring(), g.WeightMatrix()
		rng := rand.New(rand.NewSource(int64(g.N)))
		for _, nS := range []int{0, 1, 5, g.N} {
			inS := make([]bool, g.N)
			for _, v := range rng.Perm(g.N)[:min(nS, g.N)] {
				inS[v] = true
			}
			for _, d := range []int{1, 2, 6, g.N} {
				for _, k := range []int{1, 3, g.N} {
					want := sourceDetectKAllRef[semiring.WH](sr, w, inS, d, k)
					for _, workers := range []int{1, 0} {
						got, release, err := SourceDetectKLent[semiring.WH](context.Background(), sr, w, inS, d, k, workers)
						if err != nil {
							t.Fatal(err)
						}
						sameRows(t, fmt.Sprintf("%s |S|=%d d=%d k=%d workers=%d", name, nS, d, k, workers), got, want)
						release()
					}
				}
			}
		}
	}
}
