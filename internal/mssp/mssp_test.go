package mssp

import (
	"context"
	"math/rand"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
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

func pickSources(n, count int, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	inS := make([]bool, n)
	for c := 0; c < count; {
		v := rng.Intn(n)
		if !inS[v] {
			inS[v] = true
			c++
		}
	}
	return inS
}

// runMSSP executes the collective and returns per-node results plus stats.
func runMSSP(t *testing.T, g *graph.Graph, inS []bool, p hopset.Params) ([]*Result, cc.Stats) {
	t.Helper()
	sr := g.AugSemiring()
	board := hitting.NewBoard(g.N)
	results := make([]*Result, g.N)
	stats, err := cc.Run(context.Background(), cc.Config{N: g.N}, func(nd *cc.Node) error {
		res, err := Run(nd, sr, g.WeightRow(nd.ID), inS, board, p)
		if err != nil {
			return err
		}
		results[nd.ID] = res
		return nil
	})
	if err != nil {
		t.Fatalf("MSSP failed: %v", err)
	}
	return results, stats
}

// checkStretch asserts the Theorem 3 guarantee: d <= d̃ <= (1+ε)·d for
// every (node, source) pair, with unreachable pairs absent.
func checkStretch(t *testing.T, g *graph.Graph, inS []bool, results []*Result, eps float64) {
	t.Helper()
	var srcs []int
	for s, in := range inS {
		if in {
			srcs = append(srcs, s)
		}
	}
	est := make([][]int64, g.N)
	for v := range est {
		est[v] = make([]int64, len(srcs))
		for i, s := range srcs {
			est[v][i] = semiring.Inf
			for _, e := range results[v].Dist {
				if int(e.Col) == s {
					est[v][i] = e.Val.W
				}
			}
		}
	}
	if err := stretch.Check(g, srcs, est, stretch.OnePlus(eps)).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMSSPStretch(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		sources int
		p       hopset.Params
	}{
		{"sqrt-sources-paper", randGraph(25, 30, 10, 1), 5, hopset.Paper(0.5)},
		{"sqrt-sources-practical", randGraph(36, 50, 20, 2), 6, hopset.Practical(0.5)},
		{"single-source", randGraph(30, 30, 10, 3), 1, hopset.Practical(0.25)},
		{"many-sources", randGraph(24, 24, 5, 4), 12, hopset.Practical(1.0)},
		{"tree", randGraph(20, 0, 9, 5), 4, hopset.Paper(1.0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inS := pickSources(tc.g.N, tc.sources, 99)
			results, _ := runMSSP(t, tc.g, inS, tc.p)
			checkStretch(t, tc.g, inS, results, tc.p.Eps)
		})
	}
}

func TestMSSPDisconnected(t *testing.T) {
	g := graph.New(10)
	for v := 0; v < 4; v++ {
		g.MustAddEdge(v, (v+1)%5, 2)
	}
	for v := 5; v < 9; v++ {
		g.MustAddEdge(v, v+1, 3)
	}
	inS := make([]bool, 10)
	inS[0] = true
	inS[7] = true
	results, _ := runMSSP(t, g, inS, hopset.Practical(0.5))
	checkStretch(t, g, inS, results, 0.5)
}

func TestMSSPHopsetReuse(t *testing.T) {
	// Two source sets against one hopset must both satisfy the guarantee.
	g := randGraph(24, 30, 10, 8)
	sr := g.AugSemiring()
	board := hitting.NewBoard(g.N)
	inS1 := pickSources(g.N, 4, 1)
	inS2 := pickSources(g.N, 4, 2)
	res1 := make([]*Result, g.N)
	res2 := make([]*Result, g.N)
	_, err := cc.Run(context.Background(), cc.Config{N: g.N}, func(nd *cc.Node) error {
		r1, err := Run(nd, sr, g.WeightRow(nd.ID), inS1, board, hopset.Practical(0.5))
		if err != nil {
			return err
		}
		res1[nd.ID] = r1
		r2, err := RunWithHopset(nd, sr, g.WeightRow(nd.ID), inS2, r1.Hopset)
		if err != nil {
			return err
		}
		res2[nd.ID] = r2
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStretch(t, g, inS1, res1, 0.5)
	checkStretch(t, g, inS2, res2, 0.5)
}

// TestTheorem3Rounds: with |S| <= √n and the hop budget pinned (at the
// tiny test sizes the β = O(log n/ε) budget is still dominated by its
// n-cap, so we fix Levels and BetaFactor to isolate the n-dependence),
// rounds must grow sublinearly in n - the polylog claim of Theorem 3. The
// full formula sweep is benchmark E7.
func TestTheorem3Rounds(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	p := hopset.Params{Eps: 1, Levels: 4, BetaFactor: 1}
	rounds := map[int]int{}
	for _, n := range []int{25, 100} {
		g := randGraph(n, 2*n, 10, int64(n))
		inS := pickSources(n, 5, 7)
		_, stats := runMSSP(t, g, inS, p)
		rounds[n] = stats.TotalRounds()
	}
	// A 4x increase in n must not double the rounds at a fixed hop budget.
	if rounds[100] > 2*rounds[25] {
		t.Errorf("MSSP rounds grew too fast: %v", rounds)
	}
}
