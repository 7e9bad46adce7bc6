package apsp

import (
	"testing"

	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/stretch"
)

// TestAPSPDisconnected: estimates must stay infinite across components and
// satisfy the guarantee within them.
func TestAPSPDisconnected(t *testing.T) {
	g := graph.New(20)
	// Two components: a cycle and a path.
	for v := 0; v < 9; v++ {
		g.MustAddEdge(v, (v+1)%10, 1)
	}
	g.MustAddEdge(9, 0, 1)
	for v := 10; v < 19; v++ {
		g.MustAddEdge(v, v+1, 1)
	}
	eps := 0.5
	rows, _ := runUnweighted2(t, g, eps, hopset.Practical(1))
	checkStretch(t, g, rows, stretch.TwoPlus(eps))
}

// TestAPSPTinyGraphs: degenerate sizes must not crash or violate bounds.
func TestAPSPTinyGraphs(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		g := graph.New(n)
		for v := 0; v+1 < n; v++ {
			g.MustAddEdge(v, v+1, 2)
		}
		eps := 1.0
		rows, _ := runWeighted2(t, g, eps, hopset.Practical(1))
		// Worst admissible: (2+ε)d + (1+ε)W with W <= d.
		checkStretch(t, g, rows, stretch.Factor(3+2*eps))
	}
}

// TestAPSPCompleteGraph: on K_n everything is adjacent - estimates must be
// exact after line (1).
func TestAPSPCompleteGraph(t *testing.T) {
	n := 16
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v, 1)
		}
	}
	rows, _ := runUnweighted2(t, g, 0.5, hopset.Practical(1))
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			want := int64(1)
			if u == v {
				want = 0
			}
			if rows[v][u] != want {
				t.Fatalf("(%d,%d)=%d, want %d", v, u, rows[v][u], want)
			}
		}
	}
}

// TestAPSPDeterministic: two identical runs agree bit for bit.
func TestAPSPDeterministic(t *testing.T) {
	g := randGraph(20, 24, 8, 42)
	r1, s1 := runWeighted2(t, g, 0.5, hopset.Practical(1))
	r2, s2 := runWeighted2(t, g, 0.5, hopset.Practical(1))
	if s1.String() != s2.String() {
		t.Errorf("stats differ: %v vs %v", s1.String(), s2.String())
	}
	for v := range r1 {
		for u := range r1[v] {
			if r1[v][u] != r2[v][u] {
				t.Fatalf("estimates differ at (%d,%d)", v, u)
			}
		}
	}
}
