// Package stretch holds approximate distances to the paper's per-pair
// guarantees, measured against exact Dijkstra distances: an algorithm is
// judged by the bound it promises, not by the bytes another one returns.
package stretch

import (
	"fmt"

	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// A Bound is the largest estimate a guarantee admits for the pair (s, v)
// at finite exact distance d.
type Bound func(s, v int, d int64) float64

// Factor admits c·d and Exact d alone; OnePlus is Theorem 3's MSSP bound
// (and a (β, ε)-hopset's on β-hop distances), TwoPlus Theorem 31's
// unweighted APSP bound and ThreePlus §6.1's weighted one.
func Factor(c float64) Bound      { return func(_, _ int, d int64) float64 { return c * float64(d) } }
func Exact() Bound                { return Factor(1) }
func OnePlus(eps float64) Bound   { return Factor(1 + eps) }
func TwoPlus(eps float64) Bound   { return Factor(2 + eps) }
func ThreePlus(eps float64) Bound { return Factor(3 + eps) }

// TwoPlusW is Theorem 28's weighted APSP bound, (2+ε)d + (1+ε)w, for a w
// at least the heaviest edge of some shortest path of the pair.
func TwoPlusW(eps float64, w int64) Bound {
	return func(_, _ int, d int64) float64 { return (2+eps)*float64(d) + (1+eps)*float64(w) }
}

// Kind is how a pair breaks its bound.
type Kind string

const (
	Under   Kind = "estimate below the exact distance"
	Phantom Kind = "finite estimate for an unreachable pair"
	Missing Kind = "no estimate for a reachable pair"
	Over    Kind = "estimate over the bound"
)

// Report is what Check found. Worst is the largest Est/D over the
// estimated pairs with 0 < D < Inf, Exact the fraction of them with
// Est == D (both 1 when there are none). Kind, if set, is how the first
// pair in source order, (S, V), breaks the bound: at exact distance D
// (semiring.Inf if unreachable) it has estimate Est and bound Limit.
type Report struct {
	Worst, Exact float64
	Kind         Kind
	S, V         int
	D, Est       int64
	Limit        float64
}

// Err describes the pair that breaks the bound, or is nil.
func (r Report) Err() error {
	if r.Kind == "" {
		return nil
	}
	return fmt.Errorf("stretch: pair (%d,%d): %s: estimate %d, exact %d, bound %.4g", r.S, r.V, r.Kind, r.Est, r.D, r.Limit)
}

// Check runs graph.Dijkstra once per source and holds every pair (srcs[i],
// v) to b, allowing 1e-9 of float rounding. est[v][i] is node v's estimate
// of its distance to srcs[i], at or above semiring.Inf for none. A nil
// srcs means every node, so an all-pairs table is checked as it is.
func Check(g *graph.Graph, srcs []int, est [][]int64, b Bound) Report {
	if srcs == nil {
		srcs = make([]int, g.N)
		for i := range srcs {
			srcs[i] = i
		}
	}
	r, pairs, exact := Report{Worst: 1, Exact: 1}, 0, 0
	for i, s := range srcs {
		for v, d := range g.Dijkstra(s) {
			e, k := est[v][i], Kind("")
			switch {
			case d >= semiring.Inf:
				if e < semiring.Inf {
					k = Phantom
				}
			case e >= semiring.Inf:
				k = Missing
			case e < d:
				k = Under
			case float64(e) > b(s, v, d)+1e-9:
				k = Over
			}
			if k != "" && r.Kind == "" {
				r.Kind, r.S, r.V, r.D, r.Est = k, s, v, d, e
				if d < semiring.Inf {
					r.Limit = b(s, v, d)
				}
			}
			if d > 0 && d < semiring.Inf && e < semiring.Inf {
				pairs++
				if e == d {
					exact++
				}
				r.Worst = max(r.Worst, float64(e)/float64(d))
			}
		}
	}
	if pairs > 0 {
		r.Exact = float64(exact) / float64(pairs)
	}
	return r
}
