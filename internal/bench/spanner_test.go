package bench

import (
	"context"
	"math"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/stretch"
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
			if err := stretch.Check(g, nil, spannerRows(results), stretch.Factor(float64(2*k-1))).Err(); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
	}
}

// spannerRows is the spanner APSP's estimate table.
func spannerRows(results []*spannerResult) [][]int64 {
	rows := make([][]int64, len(results))
	for v, r := range results {
		rows[v] = r.Dist
	}
	return rows
}

func TestSpannerK1IsWholeGraphDistances(t *testing.T) {
	// k=1 yields stretch 1: exact distances (spanner = whole graph).
	g := randGraph(16, 30, 5, 3)
	results := runSpanner(t, g, 1, 11)
	if err := stretch.Check(g, nil, spannerRows(results), stretch.Exact()).Err(); err != nil {
		t.Fatalf("k=1 must be exact: %v", err)
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
