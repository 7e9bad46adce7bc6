package mssp_test

import (
	"context"
	"testing"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/stretch"
)

// panelReport checks a direct MSSP answer for srcs against Theorem 3's
// (1+ε).
func panelReport(g *graph.Graph, p *disttools.Panel, srcs []int, eps float64) stretch.Report {
	q := len(srcs)
	est := make([][]int64, g.N)
	for v := range est {
		est[v] = p.W[v*q : (v+1)*q]
	}
	return stretch.Check(g, srcs, est, stretch.OnePlus(eps))
}

// TestStretchCatchesCappedSweep: the checker tells a healthy kernel from a
// weakened one. On a path of 1024 nodes, the detection sweep over G ∪ H
// capped at two hops leaves pairs without an estimate (at three, some
// estimates are over the bound), and stretch.Check must say so; at the
// artifact's β it must find nothing.
func TestStretchCatchesCappedSweep(t *testing.T) {
	const n, eps = 1024, 0.5
	g := graphgen.Path(n, graphgen.Weights{Max: 5}, 3)
	ctx := context.Background()
	art, gh, err := hopset.BuildDirectFrom(ctx, g.AugSemiring(), g.WeightMatrix(), hopset.Practical(eps), nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []int{0, n / 3, n - 1}
	inS := make([]bool, n)
	for _, s := range srcs {
		inS[s] = true
	}
	for _, tc := range []struct {
		beta    int
		healthy bool
	}{{art.Beta, true}, {2, false}} {
		p, err := mssp.RunDirectPanel(ctx, gh, tc.beta, inS, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := panelReport(g, p, srcs, eps)
		p.Release()
		switch {
		case tc.healthy && r.Kind != "":
			t.Errorf("β=%d: %v", tc.beta, r.Err())
		case !tc.healthy && r.Kind != stretch.Missing && r.Kind != stretch.Over:
			t.Errorf("β=%d: want a reachable pair with no estimate or one over the bound, got %q", tc.beta, r.Kind)
		}
	}
}
