package diameter

import (
	"context"
	"math/rand"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/mssp"
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

func cycleGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, 1)
	}
	return g
}

// runDiameter returns the estimate of the simulated clique on g, over a
// hopset the simulator built at eps, after checking that the direct
// clique over the same hopset gives the same.
func runDiameter(t *testing.T, g *graph.Graph, eps float64) int64 {
	t.Helper()
	ctx := context.Background()
	sr, w := g.AugSemiring(), g.WeightMatrix()
	board := hitting.NewBoard(g.N)
	results := make([]*hopset.Result, g.N)
	_, err := cc.Run(ctx, cc.Config{N: g.N}, func(nd *cc.Node) (err error) {
		results[nd.ID], err = hopset.Build(nd, sr, w.Rows[nd.ID], board, hopset.Practical(eps))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	art, err := hopset.Collect(results)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Approx(clique.NewSim(ctx, cc.Config{N: g.N}, sr, w, art))
	if err != nil {
		t.Fatalf("diameter failed: %v", err)
	}
	direct, err := Approx(clique.NewDirect(ctx, sr, w, mssp.MergeGH(sr, w, art), art.Beta, 0))
	if err != nil {
		t.Fatalf("direct diameter failed: %v", err)
	}
	if direct != sim {
		t.Fatalf("the direct clique estimates %d, the simulated one %d", direct, sim)
	}
	return sim
}

// claim35Lower returns the Claim 35 lower bound for unweighted diameter D.
func claim35Lower(d int64) int64 {
	h, z := d/3, d%3
	if z == 2 {
		return 2*h + 1
	}
	return 2*h + z
}

func TestDiameterUnweightedBounds(t *testing.T) {
	eps := 0.5
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"line", lineGraph(25, 1)},
		{"cycle", cycleGraph(24)},
		{"random-sparse", randGraph(24, 10, 1, 3)},
		{"random-dense", randGraph(25, 80, 1, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, connected := tc.g.Diameter()
			if !connected {
				t.Fatal("test graph must be connected")
			}
			got := runDiameter(t, tc.g, eps)
			if got < claim35Lower(d) {
				t.Errorf("estimate %d below Claim 35 lower bound %d (D=%d)", got, claim35Lower(d), d)
			}
			if float64(got) > (1+eps)*float64(d)+1e-9 {
				t.Errorf("estimate %d exceeds (1+ε)·D = (1+%v)·%d", got, eps, d)
			}
		})
	}
}

func TestDiameterWeightedBounds(t *testing.T) {
	// Weighted: floor(2D/3 - W) <= D' <= (1+ε)D (remark after Claim 35).
	eps := 0.5
	g := randGraph(25, 30, 10, 5)
	d, connected := g.Diameter()
	if !connected {
		t.Fatal("test graph must be connected")
	}
	got := runDiameter(t, g, eps)
	lower := 2*d/3 - g.MaxW()
	if got < lower {
		t.Errorf("estimate %d below weighted lower bound %d (D=%d, W=%d)", got, lower, d, g.MaxW())
	}
	if float64(got) > (1+eps)*float64(d)+1e-9 {
		t.Errorf("estimate %d exceeds (1+ε)·%d", got, d)
	}
}

// TestDiameterAgreesAcrossNodes: every node reads the estimate off one
// broadcast vector, so what is left to agree is the two cliques the one
// copy of §7.2 runs on, which runDiameter compares.
func TestDiameterAgreesAcrossNodes(t *testing.T) {
	runDiameter(t, randGraph(20, 20, 5, 6), 0.5)
}
