package apsp

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/stretch"
)

func randGraph(n, extraEdges int, maxW int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, rng.Intn(v), rng.Int63n(maxW)+1)
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, rng.Int63n(maxW)+1)
		}
	}
	return g
}

// minBottleneck[v] is the minimum over all shortest src-v paths of the
// heaviest edge on the path - the W of the (2+ε, (1+ε)W) guarantee in its
// strongest admissible reading.
func minBottleneck(g *graph.Graph, src int) []int64 {
	d := g.Dijkstra(src)
	n := g.N
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d[order[a]] < d[order[b]] })
	w := make([]int64, n)
	for i := range w {
		w[i] = semiring.Inf
	}
	w[src] = 0
	for _, v := range order {
		if d[v] >= semiring.Inf {
			continue
		}
		for _, e := range g.Adj[v] {
			if d[v]+e.W == d[e.To] {
				cand := w[v]
				if e.W > cand {
					cand = e.W
				}
				if cand < w[e.To] {
					w[e.To] = cand
				}
			}
		}
	}
	return w
}

// query is one of the three algorithms, on the clique on G and, for the
// unweighted one, the clique on G'.
type query func(c clique.Clique, w *matrix.Mat[semiring.WH], low clique.Clique) ([]int64, error)

// buildSim builds the hopset of the graph whose weight matrix is w on the
// simulator.
func buildSim(t *testing.T, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], p hopset.Params) (*hopset.Artifact, cc.Stats) {
	t.Helper()
	board := hitting.NewBoard(w.N)
	results := make([]*hopset.Result, w.N)
	stats, err := cc.Run(context.Background(), cc.Config{N: w.N}, func(nd *cc.Node) (err error) {
		results[nd.ID], err = hopset.Build(nd, sr, w.Rows[nd.ID], board, p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	art, err := hopset.Collect(results)
	if err != nil {
		t.Fatal(err)
	}
	return art, stats
}

// run answers q on the simulated cliques on g and its G', over hopsets
// of HopsetParams(hp, eps) the simulator built, after checking that the
// direct cliques over the same hopsets answer the same table. It returns
// the rows and the Stats of every run, the builds' included.
func run(t *testing.T, g *graph.Graph, eps float64, hp hopset.Params, q query) ([][]int64, cc.Stats) {
	t.Helper()
	ctx := context.Background()
	sr, w := g.AugSemiring(), g.WeightMatrix()
	degs := make([]int64, g.N)
	for v, row := range w.Rows {
		degs[v] = int64(len(row))
	}
	wLow := LowDegree(w, degs)
	art, stats := buildSim(t, sr, w, HopsetParams(hp, eps))
	artLow, statsLow := buildSim(t, sr, wLow, HopsetParams(hp, eps))
	sim := clique.NewSim(ctx, cc.Config{N: g.N}, sr, w, art)
	table, err := q(sim, w, sim.On(wLow, artLow))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := q(clique.NewDirect(ctx, sr, w, mssp.MergeGH(sr, w, art), art.Beta, 0), w,
		clique.NewDirect(ctx, sr, wLow, mssp.MergeGH(sr, wLow, artLow), artLow.Beta, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(direct, table) {
		t.Fatal("the direct cliques answer another table than the simulated ones")
	}
	stats.Add(&statsLow)
	stats.Add(&sim.Stats)
	rows := make([][]int64, g.N)
	for v := range rows {
		rows[v] = table[v*g.N : (v+1)*g.N]
	}
	return rows, stats
}

func runWeighted2(t *testing.T, g *graph.Graph, eps float64, hp hopset.Params) ([][]int64, cc.Stats) {
	t.Helper()
	return run(t, g, eps, hp, func(c clique.Clique, w *matrix.Mat[semiring.WH], _ clique.Clique) ([]int64, error) {
		return TwoPlusEpsWeighted(c, w)
	})
}

func runThree(t *testing.T, g *graph.Graph, eps float64, hp hopset.Params) ([][]int64, cc.Stats) {
	t.Helper()
	return run(t, g, eps, hp, func(c clique.Clique, w *matrix.Mat[semiring.WH], _ clique.Clique) ([]int64, error) {
		return ThreePlusEps(c, w)
	})
}

func runUnweighted2(t *testing.T, g *graph.Graph, eps float64, hp hopset.Params) ([][]int64, cc.Stats) {
	t.Helper()
	return run(t, g, eps, hp, TwoPlusEpsUnweighted)
}

// checkStretch holds every pair of an APSP table to b, and unreachable
// pairs to no estimate (stretch.Check).
func checkStretch(t *testing.T, g *graph.Graph, rows [][]int64, b stretch.Bound) {
	t.Helper()
	if err := stretch.Check(g, nil, rows, b).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPlusEpsWeightedGuarantee(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		eps  float64
	}{
		{"random", randGraph(25, 30, 10, 1), 0.5},
		{"heavy-line", heavyLine(24), 0.5},
		{"dense", randGraph(20, 80, 5, 2), 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, _ := runWeighted2(t, tc.g, tc.eps, hopset.Practical(1))
			bott := make([][]int64, tc.g.N)
			for v := range bott {
				bott[v] = minBottleneck(tc.g, v)
			}
			checkStretch(t, tc.g, rows, func(s, v int, d int64) float64 {
				return stretch.TwoPlusW(tc.eps, bott[s][v])(s, v, d)
			})
		})
	}
}

// heavyLine: a line whose edge weights grow, maximizing the W term.
func heavyLine(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, int64(v%7)+1)
	}
	return g
}

func TestThreePlusEpsGuarantee(t *testing.T) {
	g := randGraph(25, 40, 10, 3)
	eps := 0.5
	rows, _ := runThree(t, g, eps, hopset.Practical(1))
	checkStretch(t, g, rows, stretch.ThreePlus(eps))
}

func unweightedRand(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, rng.Intn(v), 1)
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 1)
		}
	}
	return g
}

// starPlusPath: a high-degree hub with pendant paths - exercises both the
// high-degree phase (hub) and the low-degree phase (paths).
func starPlusPath(n int) *graph.Graph {
	g := graph.New(n)
	half := n / 2
	for v := 1; v <= half; v++ {
		g.MustAddEdge(0, v, 1)
	}
	for v := half; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 1)
	}
	return g
}

func TestTwoPlusEpsUnweightedGuarantee(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		eps  float64
	}{
		{"sparse-random", unweightedRand(25, 12, 4), 0.5},
		{"dense-random", unweightedRand(24, 100, 5), 0.5},
		{"star-plus-path", starPlusPath(26), 0.5},
		{"cycle", cycleGraph(24), 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, _ := runUnweighted2(t, tc.g, tc.eps, hopset.Practical(1))
			checkStretch(t, tc.g, rows, stretch.TwoPlus(tc.eps))
		})
	}
}

func cycleGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, 1)
	}
	return g
}

func TestAPSPAdjacentPairsExact(t *testing.T) {
	g := unweightedRand(24, 30, 6)
	rows, _ := runUnweighted2(t, g, 0.5, hopset.Practical(1))
	for v := 0; v < g.N; v++ {
		for _, e := range g.Adj[v] {
			if rows[v][e.To] != 1 {
				t.Errorf("adjacent pair (%d,%d) estimated %d, want 1", v, e.To, rows[v][e.To])
			}
		}
	}
}

func TestAPSPSymmetry(t *testing.T) {
	g := randGraph(24, 30, 8, 7)
	rows, _ := runWeighted2(t, g, 0.5, hopset.Practical(1))
	for v := 0; v < g.N; v++ {
		for u := 0; u < g.N; u++ {
			if rows[v][u] != rows[u][v] {
				t.Fatalf("asymmetric estimates: δ(%d,%d)=%d but δ(%d,%d)=%d", v, u, rows[v][u], u, v, rows[u][v])
			}
		}
	}
}

// TestLemma27Cases (Figure 3): constructions realizing the three cases of
// the §6.2 stretch analysis, asserting the per-case bound.
func TestLemma27Cases(t *testing.T) {
	eps := 0.5
	// Case 1: a short path - w is within N_k of both endpoints: exact.
	g1 := graph.New(16)
	g1.MustAddEdge(0, 1, 1)
	g1.MustAddEdge(1, 2, 1)
	for v := 3; v < 16; v++ {
		g1.MustAddEdge(v, v-1, 100)
	}
	rows, _ := runWeighted2(t, g1, eps, hopset.Practical(1))
	if rows[0][2] != 2 {
		t.Errorf("case 1: δ(0,2)=%d, want exact 2 (w ∈ N_k(u) ∩ N_k(v))", rows[0][2])
	}
	// Case 2: a long path - there is a middle node outside both
	// neighborhoods; the (2+ε) bound must hold via the pivots.
	g2 := heavyLine(24)
	rows2, _ := runWeighted2(t, g2, eps, hopset.Practical(1))
	d := g2.Dijkstra(0)[23]
	bott := minBottleneck(g2, 0)[23]
	if got := float64(rows2[0][23]); got > stretch.TwoPlusW(eps, bott)(0, 23, d)+1e-9 {
		t.Errorf("case 2: δ(0,23)=%v exceeds bound for d=%d W=%d", got, d, bott)
	}
	// Case 3: endpoints' neighborhoods meet only at an edge {u',v'}: the
	// additive (1+ε)W term absorbs that edge.
	g3 := graph.New(12)
	for v := 0; v < 5; v++ {
		g3.MustAddEdge(v, v+1, 1)
	}
	g3.MustAddEdge(5, 6, 50) // the heavy bridge u'-v'
	for v := 6; v < 11; v++ {
		g3.MustAddEdge(v, v+1, 1)
	}
	rows3, _ := runWeighted2(t, g3, eps, hopset.Practical(1))
	d3 := g3.Dijkstra(0)[11]
	if got := float64(rows3[0][11]); got > stretch.TwoPlusW(eps, 50)(0, 11, d3)+1e-9 {
		t.Errorf("case 3: δ(0,11)=%v exceeds (2+ε)·%d+(1+ε)·50", got, d3)
	}
}
