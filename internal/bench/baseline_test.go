package bench

import (
	"context"
	"math/rand"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/graph"
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

func TestDenseAPSPExact(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := randGraph(18, 25, 10, seed)
		sr := g.AugSemiring()
		rows := make([][]int64, g.N)
		_, err := cc.Run(context.Background(), cc.Config{N: g.N}, func(nd *cc.Node) error {
			row, err := denseAPSP(nd, sr, g.WeightRow(nd.ID))
			if err != nil {
				return err
			}
			rows[nd.ID] = row
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := stretch.Check(g, nil, rows, stretch.Exact()).Err(); err != nil {
			t.Fatalf("seed %d: dense APSP: %v", seed, err)
		}
	}
}

// TestDenseAPSPRoundsPolynomial: the baseline costs Θ(n^{1/3} log n)
// rounds - it must grow markedly with n, which is exactly what E12
// contrasts with the polylog algorithms.
func TestDenseAPSPRoundsPolynomial(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	rounds := map[int]int{}
	for _, n := range []int{27, 216} {
		g := randGraph(n, 3*n, 5, int64(n))
		sr := g.AugSemiring()
		stats, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
			_, err := denseAPSP(nd, sr, g.WeightRow(nd.ID))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds[n] = stats.TotalRounds()
	}
	if rounds[216] <= rounds[27] {
		t.Errorf("dense baseline rounds did not grow with n: %v", rounds)
	}
}

func TestBellmanFordSSSPBaseline(t *testing.T) {
	g := randGraph(20, 20, 10, 3)
	want := g.Dijkstra(4)
	got, _, _, err := bellmanFordSSSP(Config{}, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("d[%d]=%d, want %d", v, got[v], want[v])
		}
	}
}
