package bench

import (
	"context"
	"math"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/semiring"
)

func runSpanner(t *testing.T, g *graph.Graph, k int, seed int64) []*spannerResult {
	t.Helper()
	results := make([]*spannerResult, g.N)
	_, err := cc.Run(context.Background(), cc.Config{N: g.N}, func(nd *cc.Node) error {
		res, err := spannerAPSP(nd, g.WeightRow(nd.ID), k, seed)
		if err != nil {
			return err
		}
		results[nd.ID] = res
		return nil
	})
	if err != nil {
		t.Fatalf("spanner APSP failed: %v", err)
	}
	return results
}

func TestSpannerStretch(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, seed := range []int64{1, 2} {
			g := randGraph(24, 60, 10, seed)
			results := runSpanner(t, g, k, seed*7+1)
			ref := g.APSPRef()
			for v := 0; v < g.N; v++ {
				for u := 0; u < g.N; u++ {
					d, got := ref[v][u], results[v].Dist[u]
					if d >= semiring.Inf {
						if got < semiring.Inf {
							t.Fatalf("k=%d: unreachable pair (%d,%d) got %d", k, v, u, got)
						}
						continue
					}
					if got < d {
						t.Fatalf("k=%d: spanner distance %d below true %d", k, got, d)
					}
					if float64(got) > float64(2*k-1)*float64(d)+1e-9 {
						t.Fatalf("k=%d: pair (%d,%d) stretch %d/%d exceeds 2k-1", k, v, u, got, d)
					}
				}
			}
		}
	}
}

func TestSpannerK1IsWholeGraphDistances(t *testing.T) {
	// k=1 yields stretch 1: exact distances (spanner = whole graph).
	g := randGraph(16, 30, 5, 3)
	results := runSpanner(t, g, 1, 11)
	ref := g.APSPRef()
	for v := 0; v < g.N; v++ {
		for u := 0; u < g.N; u++ {
			want := ref[v][u]
			if want >= semiring.Inf {
				continue
			}
			if results[v].Dist[u] != want {
				t.Fatalf("k=1 must be exact: (%d,%d) got %d want %d", v, u, results[v].Dist[u], want)
			}
		}
	}
}

func TestSpannerSize(t *testing.T) {
	// |H| = O(k · n^{1+1/k}) for Baswana-Sen.
	n := 64
	g := randGraph(n, 6*n, 10, 4)
	for _, k := range []int{2, 3} {
		results := runSpanner(t, g, k, 13)
		size := results[0].SpannerEdges
		bound := 8 * float64(k) * math.Pow(float64(n), 1+1.0/float64(k))
		if float64(size) > bound {
			t.Errorf("k=%d: spanner has %d edges, above bound %.0f", k, size, bound)
		}
		for v := 1; v < n; v++ {
			if results[v].SpannerEdges != size {
				t.Fatal("nodes disagree on spanner size")
			}
		}
	}
}
