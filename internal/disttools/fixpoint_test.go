package disttools

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// fixpointGraphs are the families the fixpoint exits and the k-nearest
// search are pinned on: weighted and unit-weight (rank ties everywhere; a
// unit clique ties every row at every rank), layers of unit-weight
// bicliques under shuffled labels (a run of tied ranks straddles the k-th
// place at every k, and the lowest columns are not the first reached),
// sparse and dense, a long path (converges late), a disconnected graph
// (rows that never fill up to k), zero-weight edges (a lighter node can
// sit more hops away) and paths and a star whose every edge is the
// heaviest the engine admits (ranks at the top of their range).
// TestKNearestAllFixpointEquivalence adds the §6.3 subgraph G' of each.
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
		"ties":         layeredBicliques(rng, 3, 5, 12, 20),
		"sparse":       randGraph(32, 16, 20, 41),
		"dense":        randGraph(24, 120, 50, 42),
		"tree":         randGraph(28, 0, 20, 43),
		"wide":         randGraph(150, 75, 20, 46), // rows whose few kept columns span more words than they hold
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

// layeredBicliques joins every node of each layer to every node of the
// next by a unit-weight edge, the layers of the given sizes, and labels
// the nodes in a random order.
func layeredBicliques(rng *rand.Rand, sizes ...int) *graph.Graph {
	n := 0
	for _, s := range sizes {
		n += s
	}
	g, label, first := graph.New(n), rng.Perm(n), 0
	for i := 1; i < len(sizes); i++ {
		prev := first
		first += sizes[i-1]
		for a := prev; a < first; a++ {
			for b := first; b < first+sizes[i]; b++ {
				g.MustAddEdge(label[a], label[b], 1)
			}
		}
	}
	return g
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

// routedSemiring is the witness-tracking semiring sized for g (§3.1,
// recovering paths), bounded as g.AugSemiring() is.
func routedSemiring(g *graph.Graph) semiring.RoutedMinPlus {
	sr := g.AugSemiring()
	return semiring.NewRoutedMinPlus(sr.MaxW, sr.MaxH)
}

// routedMatrix is w with every row lifted by RoutedRow: over a graph's
// weight matrix, the routed (first-hop witness) weight matrix of §3.1. A
// nil row stays nil.
func routedMatrix(w *matrix.Mat[semiring.WH]) *matrix.Mat[semiring.WHF] {
	m := matrix.New[semiring.WHF](w.N)
	for v, row := range w.Rows {
		m.Rows[v] = RoutedRow(row, v)
	}
	return m
}

// checkRouted holds KNearestRouted over g's weights w to all ⌈log₂ k⌉
// squarings over routedMatrix(w), row for row, first hops included, at
// workers 1, 2, 4 and 0.
func checkRouted(t *testing.T, what string, g *graph.Graph, w *matrix.Mat[semiring.WH], k int) {
	t.Helper()
	want := knearestAllRef[semiring.WHF](routedSemiring(g), routedMatrix(w), k)
	for _, workers := range []int{1, 2, 4, 0} {
		got, release, err := KNearestRouted(context.Background(), g.AugSemiring(), w, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("%s: KNearestRouted k=%d workers=%d", what, k, workers), got, want)
		release()
	}
}

// TestKNearestRoutedTies holds the routed search to the squarings where
// most first hops tie: on seeded unit-weight grids and cycles, a node
// is reached at its least (W, H) through several of the source's
// neighbours, and the answer must name the least of them; the source's
// own entry names none (-1).
func TestKNearestRoutedTies(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid=6x7": graphgen.Grid(6, 7, graphgen.Weights{}, 3),
		"grid=9x9": graphgen.Grid(9, 9, graphgen.Weights{}, 5),
		"cycle=24": graphgen.Cycle(24, graphgen.Weights{}, 7),
		"cycle=31": graphgen.Cycle(31, graphgen.Weights{}, 9),
	} {
		for _, k := range []int{1, 3, 8, 20, g.N} {
			checkRouted(t, name, g, g.WeightMatrix(), k)
		}
	}
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

// sameRanks asserts that KNearestRanks' rows (cols, ranks) are the rows of
// KNearestAll, want, in settle order: per row, the same columns, each
// rank decoding to its column's entry, ranks that never decrease, and at
// the last rank the lowest of the columns all's row (every reachable
// node) holds at that rank.
func sameRanks(t *testing.T, what string, sr semiring.AugMinPlus, cols [][]int32, ranks [][]int64, want, all *matrix.Mat[semiring.WH]) {
	t.Helper()
	for v, row := range want.Rows {
		c, r := cols[v], ranks[v]
		if len(c) != len(row) || len(r) != len(row) {
			t.Errorf("%s: row %d holds %d columns and %d ranks, want %d", what, v, len(c), len(r), len(row))
			return
		}
		for i, u := range c {
			j, ok := slices.BinarySearchFunc(row, u, func(e matrix.Entry[semiring.WH], u int32) int { return int(e.Col - u) })
			if !ok {
				t.Errorf("%s: row %d keeps column %d, which KNearestAll's row %v does not", what, v, u, row)
				return
			}
			if got := sr.Unrank(r[i]); got != row[j].Val {
				t.Errorf("%s: row %d column %d: rank %d decodes to %v, want %v", what, v, u, r[i], got, row[j].Val)
				return
			}
			if i > 0 && r[i] < r[i-1] {
				t.Errorf("%s: row %d: rank %d of column %d follows rank %d", what, v, r[i], u, r[i-1])
				return
			}
		}
		if len(c) == 0 {
			continue
		}
		last, kept := r[len(r)-1], []int32{}
		for i, u := range c {
			if r[i] == last {
				kept = append(kept, u)
			}
		}
		var tied []int32
		for _, e := range all.Rows[v] {
			if sr.Rank(e.Val) == last {
				tied = append(tied, e.Col)
			}
		}
		if slices.Sort(kept); !slices.Equal(kept, tied[:len(kept)]) {
			t.Errorf("%s: row %d keeps %v at its last rank %d, want the lowest of %v", what, v, kept, last, tied)
			return
		}
	}
}

// knearestAllRef is Theorem 18 as the collective KNearest computes it: all
// ⌈log₂ k⌉ filtered squarings, on the generic reference kernel.
func knearestAllRef[E any](sr semiring.Ordered[E], w *matrix.Mat[E], k int) *matrix.Mat[E] {
	k = max(1, min(k, w.N))
	cur := matrix.Filter(sr, w, k)
	for t := 0; t < bits.Len(uint(k-1)); t++ {
		cur = matmul.KernelMulFilteredGeneric(sr, cur, cur, k, 1)
	}
	return cur
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
						got, release, err := SourceDetectKLent(context.Background(), sr, w, inS, d, k, workers)
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

// FuzzKNearest holds the k-nearest search to all ⌈log₂ k⌉ squarings on
// random small graphs over both semirings: weights drawn from {0, 1, 2}
// (zero-weight edges: a lighter node can sit more hops away), from 1..9,
// or all graph.MaxWeightFor(n) (keys at the top of the range), and a
// random set of rows dropped to nil, as G' drops its high-degree rows
// while other rows still reach them. KNearestRanks' rows are held to
// KNearestAll's (sameRanks), and KNearestRouted's over those weights to
// the routed squarings (checkRouted).
func FuzzKNearest(f *testing.F) {
	for _, seed := range []struct {
		seed          int64
		n, k, weights uint8
		drop          uint16
	}{
		{1, 12, 4, 0, 0}, {2, 20, 7, 1, 0x0f0f}, {3, 9, 9, 2, 0x0003}, {4, 30, 2, 0, 0x8421}, {5, 1, 1, 1, 1}, {6, 40, 17, 1, 0xffff},
	} {
		f.Add(seed.seed, seed.n, seed.k, seed.weights, seed.drop)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, k, weights uint8, drop uint16) {
		size := int(n)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(size)
		weight := func() int64 {
			switch weights % 3 {
			case 0:
				return rng.Int63n(3)
			case 1:
				return rng.Int63n(9) + 1
			default:
				return graph.MaxWeightFor(size)
			}
		}
		for e := rng.Intn(3 * size); e > 0; e-- {
			if u, v := rng.Intn(size), rng.Intn(size); u != v {
				g.MustAddEdge(u, v, weight())
			}
		}
		w := g.WeightMatrix()
		for v := 0; v < size; v++ {
			if drop&(1<<(v%16)) != 0 && rng.Intn(2) == 0 {
				w.Rows[v] = nil
			}
		}
		kk := int(k)%(size+1) + 1
		for _, workers := range []int{1, 0} {
			got, err := KNearestAll(context.Background(), g.AugSemiring(), w, kk, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("WH k=%d workers=%d", kk, workers), got, knearestAllRef[semiring.WH](g.AugSemiring(), w, kk))
			cols, ranks, err := KNearestRanks(context.Background(), g.AugSemiring(), w, kk, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameRanks(t, fmt.Sprintf("ranks k=%d workers=%d", kk, workers), g.AugSemiring(), cols, ranks, got, knearestAllRef[semiring.WH](g.AugSemiring(), w, size))
		}
		checkRouted(t, fmt.Sprintf("n=%d", size), g, w, kk)
	})
}

// FuzzSourceDetectK holds the (S, d, k)-source detection panel to all d-1
// filtered products on random small graphs: weights drawn from {0, 1, 2},
// from 1..9, or all graph.MaxWeightFor(n), a random source set, d below
// the graph's hop diameter (so the hop budget binds: some row misses a
// source it would reach with more hops), k on both sides of |S|, and
// workers 1 and 0.
func FuzzSourceDetectK(f *testing.F) {
	for _, seed := range []struct {
		seed             int64
		n, k, d, weights uint8
		sources          uint16
	}{
		{1, 12, 2, 3, 0, 0x0f0f}, {2, 20, 7, 5, 1, 0x0003}, {3, 30, 30, 9, 2, 0xffff}, {4, 40, 4, 200, 1, 0x8421}, {5, 1, 1, 1, 0, 1}, {6, 33, 3, 17, 0, 0x0100},
	} {
		f.Add(seed.seed, seed.n, seed.k, seed.d, seed.weights, seed.sources)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, k, d, weights uint8, sources uint16) {
		size := int(n)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(size)
		weight := func() int64 {
			switch weights % 3 {
			case 0:
				return rng.Int63n(3)
			case 1:
				return rng.Int63n(9) + 1
			default:
				return graph.MaxWeightFor(size)
			}
		}
		for v := 1; v < size; v++ { // a tree, then a few more edges: long hop paths
			g.MustAddEdge(v, rng.Intn(v), weight())
		}
		for e := rng.Intn(size); e > 0; e-- {
			if u, v := rng.Intn(size), rng.Intn(size); u != v {
				g.MustAddEdge(u, v, weight())
			}
		}
		inS := make([]bool, size)
		for v := range inS {
			inS[v] = sources&(1<<(v%16)) != 0 && rng.Intn(2) == 0
		}
		dd := 1 + int(d)%max(1, hopDiameter(g)-1)
		kk := int(k)%(size+1) + 1
		sr, w := g.AugSemiring(), g.WeightMatrix()
		want := sourceDetectKAllRef[semiring.WH](sr, w, inS, dd, kk)
		for _, workers := range []int{1, 0} {
			got, release, err := SourceDetectKLent(context.Background(), sr, w, inS, dd, kk, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("n=%d d=%d k=%d workers=%d", size, dd, kk, workers), got, want)
			release()
		}
	})
}

// hopDiameter is the most hops a least-hop path of g takes, over all
// connected pairs.
func hopDiameter(g *graph.Graph) int {
	diam, hops := 0, make([]int, g.N)
	for s := 0; s < g.N; s++ {
		for v := range hops {
			hops[v] = -1
		}
		hops[s] = 0
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			diam = max(diam, hops[u])
			for _, e := range g.Adj[u] {
				if hops[e.To] < 0 {
					hops[e.To] = hops[u] + 1
					queue = append(queue, int(e.To))
				}
			}
		}
	}
	return diam
}
