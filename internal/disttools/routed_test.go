package disttools

import (
	"context"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// TestKNearestRoutedWitnesses: the §3.1 path-recovery feature - k-nearest
// over the routed semiring yields first hops that walk shortest paths.
func TestKNearestRoutedWitnesses(t *testing.T) {
	g := randGraph(20, 24, 10, 11)
	sr := routedSemiring(g)
	k := 8
	rows := make([]matrix.Row[semiring.WHF], g.N)
	_, err := cc.Run(context.Background(), cc.Config{N: g.N}, func(nd *cc.Node) error {
		rows[nd.ID] = KNearest[semiring.WHF](nd, sr, g.WeightRowRouted(nd.ID), k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		trueDist := g.Dijkstra(v)
		for _, e := range rows[v] {
			if int(e.Col) == v {
				if e.Val.FH != -1 {
					t.Errorf("node %d: self entry has witness %d", v, e.Val.FH)
				}
				continue
			}
			// Distances exact.
			if e.Val.W != trueDist[e.Col] {
				t.Fatalf("node %d -> %d: distance %d, want %d", v, e.Col, e.Val.W, trueDist[e.Col])
			}
			// The witness is a neighbor on a shortest path: d(v,u) =
			// w(v,fh) + d(fh,u).
			fh := int(e.Val.FH)
			var edgeW int64 = -1
			for _, a := range g.Adj[v] {
				if int(a.To) == fh && (edgeW < 0 || a.W < edgeW) {
					edgeW = a.W
				}
			}
			if edgeW < 0 {
				t.Fatalf("node %d -> %d: witness %d is not a neighbor", v, e.Col, fh)
			}
			rest := g.Dijkstra(fh)[e.Col]
			if edgeW+rest != e.Val.W {
				t.Fatalf("node %d -> %d: witness %d not on a shortest path (%d + %d != %d)",
					v, e.Col, fh, edgeW, rest, e.Val.W)
			}
		}
	}
}

// TestRoutedFullClosureWalk: following witnesses hop by hop reconstructs a
// full shortest path.
func TestRoutedFullClosureWalk(t *testing.T) {
	g := randGraph(16, 18, 6, 13)
	sr := routedSemiring(g)
	rows := make([]matrix.Row[semiring.WHF], g.N)
	_, err := cc.Run(context.Background(), cc.Config{N: g.N}, func(nd *cc.Node) error {
		// k = n: full closure with witnesses.
		rows[nd.ID] = KNearest[semiring.WHF](nd, sr, g.WeightRowRouted(nd.ID), g.N)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(v, u int) (semiring.WHF, bool) {
		for _, e := range rows[v] {
			if int(e.Col) == u {
				return e.Val, true
			}
		}
		return semiring.InfWHF, false
	}
	for v := 0; v < g.N; v++ {
		trueDist := g.Dijkstra(v)
		for u := 0; u < g.N; u++ {
			if u == v || trueDist[u] >= semiring.Inf {
				continue
			}
			// Walk the first-hop chain from v to u, summing edge weights.
			cur, steps, total := v, 0, int64(0)
			for cur != u {
				e, ok := get(cur, u)
				if !ok {
					t.Fatalf("no routing entry %d -> %d", cur, u)
				}
				fh := int(e.FH)
				var edgeW int64 = -1
				for _, a := range g.Adj[cur] {
					if int(a.To) == fh && (edgeW < 0 || a.W < edgeW) {
						edgeW = a.W
					}
				}
				if edgeW < 0 {
					t.Fatalf("witness %d not adjacent to %d", fh, cur)
				}
				total += edgeW
				cur = fh
				if steps++; steps > g.N {
					t.Fatalf("routing loop from %d to %d", v, u)
				}
			}
			if total != trueDist[u] {
				t.Fatalf("walked path %d -> %d has weight %d, want %d", v, u, total, trueDist[u])
			}
		}
	}
}
