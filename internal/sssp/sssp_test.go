package sssp

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
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

func lineGraph(n int, w int64) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, w)
	}
	return g
}

// onBoth runs an SSSP algorithm on g's simulated and direct cliques and
// returns the simulated distances and iteration count after checking that
// the direct clique gives the same.
func onBoth(t *testing.T, g *graph.Graph, run func(c clique.Clique, w *matrix.Mat[semiring.WH]) ([]int64, int, error)) ([]int64, int) {
	t.Helper()
	ctx := context.Background()
	sr, w := g.AugSemiring(), g.WeightMatrix()
	dist, iters, err := run(clique.NewSim(ctx, cc.Config{N: g.N}, sr, w, nil), w)
	if err != nil {
		t.Fatal(err)
	}
	dDist, dIters, err := run(clique.NewDirect(ctx, sr, w, nil, 0, 0), w)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dDist, dist) || dIters != iters {
		t.Fatalf("the direct clique answers %v in %d iterations, the simulated one %v in %d", dDist, dIters, dist, iters)
	}
	return dist, iters
}

func TestBellmanFordExact(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		src  int
	}{
		{"random", randGraph(20, 25, 10, 1), 3},
		{"line", lineGraph(16, 4), 0},
		{"disconnected", disconnected(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.g.Dijkstra(tc.src)
			got, _ := onBoth(t, tc.g, func(c clique.Clique, w *matrix.Mat[semiring.WH]) ([]int64, int, error) {
				return BellmanFord(c, w.Rows, tc.src, tc.g.N+2)
			})
			for v := range want {
				if got[v] != want[v] {
					t.Errorf("d[%d]=%d, want %d", v, got[v], want[v])
				}
			}
		})
	}
}

func disconnected() *graph.Graph {
	g := graph.New(8)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(4, 5, 1)
	return g
}

func TestBellmanFordIterationsTrackSPD(t *testing.T) {
	// On a line, Bellman-Ford needs ~SPD iterations; convergence detection
	// must stop within SPD + 3.
	g := lineGraph(20, 1)
	_, iters := onBoth(t, g, func(c clique.Clique, w *matrix.Mat[semiring.WH]) ([]int64, int, error) {
		return BellmanFord(c, w.Rows, 0, 100)
	})
	spd := g.SPD()
	if iters < spd || iters > spd+3 {
		t.Errorf("iters=%d, want within [%d, %d]", iters, spd, spd+3)
	}
}

func TestExactSSSP(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		src  int
		k    int
	}{
		{"random-default-k", randGraph(24, 30, 10, 2), 5, 0},
		{"line-small-k", lineGraph(27, 3), 0, 9},
		{"line-default-k", lineGraph(32, 7), 31, 0},
		{"dense", randGraph(20, 100, 20, 3), 7, 0},
		{"disconnected", disconnected(), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.g.Dijkstra(tc.src)
			got, _ := onBoth(t, tc.g, func(c clique.Clique, w *matrix.Mat[semiring.WH]) ([]int64, int, error) {
				return Exact(c, w, tc.src, tc.k)
			})
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("d[%d]=%d, want %d", v, got[v], want[v])
				}
			}
		})
	}
}

// TestShortcutsCutIterations: the point of Theorem 33 - with shortcuts the
// Bellman-Ford phase needs ~n/k iterations instead of ~SPD.
func TestShortcutsCutIterations(t *testing.T) {
	g := lineGraph(64, 1) // SPD = 63
	k := 16
	dist, iters := onBoth(t, g, func(c clique.Clique, w *matrix.Mat[semiring.WH]) ([]int64, int, error) {
		return Exact(c, w, 0, k)
	})
	for v := 0; v < g.N; v++ {
		if dist[v] != int64(v) {
			t.Errorf("d[%d]=%d, want %d", v, dist[v], v)
		}
	}
	if bound := 4*(g.N/k) + 3; iters > bound {
		t.Errorf("shortcut Bellman-Ford took %d iterations, want <= %d (4n/k+3)", iters, bound)
	}
}
