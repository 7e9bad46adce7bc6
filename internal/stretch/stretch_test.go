package stretch

import (
	"strings"
	"testing"

	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/semiring"
)

const inf = semiring.Inf

// column is est for one source: est[v][0] = col[v].
func column(col ...int64) [][]int64 {
	est := make([][]int64, len(col))
	for v, e := range col {
		est[v] = []int64{e}
	}
	return est
}

func TestCheckKinds(t *testing.T) {
	// 0 -2- 1 -3- 2, node 3 isolated: from 0 the distances are 0, 2, 5, Inf.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	for _, tc := range []struct {
		name         string
		est          [][]int64
		kind         Kind
		v            int
		worst, exact float64
	}{
		{"exact", column(0, 2, 5, inf), "", 0, 1, 1},
		{"within the bound", column(0, 2, 7, inf), "", 0, 1.4, 0.5},
		{"over the bound", column(0, 2, 8, inf), Over, 2, 1.6, 0.5},
		{"underestimate", column(0, 1, 5, inf), Under, 1, 1, 0.5},
		{"missing", column(0, 2, inf, inf), Missing, 2, 1, 1},
		{"phantom", column(0, 2, 5, 9), Phantom, 3, 1, 1},
		{"first in source order", column(0, 1, inf, 9), Under, 1, 1, 0},
	} {
		r := Check(g, []int{0}, tc.est, OnePlus(0.5))
		if r.Kind != tc.kind || r.Worst != tc.worst || r.Exact != tc.exact {
			t.Errorf("%s: got %q, worst %v, exact %v; want %q, %v, %v", tc.name, r.Kind, r.Worst, r.Exact, tc.kind, tc.worst, tc.exact)
		}
		if tc.kind == "" {
			if err := r.Err(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if r.S != 0 || r.V != tc.v {
			t.Errorf("%s: pair (%d,%d), want (0,%d)", tc.name, r.S, r.V, tc.v)
		}
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), string(tc.kind)) {
			t.Errorf("%s: Err() = %v", tc.name, err)
		}
	}
}

// TestCheckAllPairs: a nil source list checks a table as all-pairs rows,
// and a Bound sees the pair it is asked about.
func TestCheckAllPairs(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 1)
	rows := [][]int64{{0, 4, 6}, {4, 0, 1}, {6, 1, 0}} // δ(0,2) = 6 for d = 5
	if r := Check(g, nil, rows, Exact()); r.Kind != Over || r.S != 0 || r.V != 2 || r.Limit != 5 {
		t.Errorf("exact: got %+v", r)
	}
	// Only the pair (0, 2) is held to Theorem 28's bound, which admits 6
	// at d = 5; every other pair stays exact.
	b := func(s, v int, d int64) float64 {
		if s+v == 2 && s != v {
			return TwoPlusW(0, 0)(s, v, d)
		}
		return Exact()(s, v, d)
	}
	if err := Check(g, nil, rows, b).Err(); err != nil {
		t.Error(err)
	}
	if got := TwoPlusW(0.5, 4)(0, 2, 5); got != 2.5*5+1.5*4 {
		t.Errorf("TwoPlusW = %v", got)
	}
}
