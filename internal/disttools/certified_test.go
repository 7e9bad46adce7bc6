package disttools

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// certifiedRef is CertifiedPlane read off graph.DijkstraAug: the plane of
// least weights from the sources, or nil when a node they reach has a
// least (W, H) past maxH hops.
func certifiedRef(g *graph.Graph, sources []int32, maxH int) []int64 {
	q := len(sources)
	plane := make([]int64, g.N*q)
	for j, s := range sources {
		for v, wh := range g.DijkstraAug(int(s)) {
			if wh == semiring.InfWH {
				plane[v*q+j] = semiring.Inf
				continue
			}
			if wh.H > int64(maxH) {
				return nil
			}
			plane[v*q+j] = wh.W
		}
	}
	return plane
}

// certifiedCases are graphs with deep and shallow hop depths, ties in
// weight at different hop counts (unit weights) and unreachable nodes.
func certifiedCases() []struct {
	name string
	g    *graph.Graph
} {
	line := graph.New(40)
	for v := 1; v < 40; v++ {
		line.MustAddEdge(v-1, v, int64(v%3+1))
	}
	split := graph.New(34) // a random component, an edge and two isolated nodes
	for u, adj := range randGraph(30, 20, 1, 5).Adj {
		for _, e := range adj {
			if u < int(e.To) {
				split.MustAddEdge(u, int(e.To), e.W)
			}
		}
	}
	split.MustAddEdge(30, 31, 2)
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"random", randGraph(120, 200, 9, 11)},
		{"unit", randGraph(90, 60, 1, 12)},
		{"line", line},
		{"split", split},
	}
}

// TestCertifiedPlane holds CertifiedPlane to graph.DijkstraAug at every
// hop bound from 1 past the hop depth, at one and at several sources and
// at both ends of the worker range: the plane of least weights exactly
// when every reached node's least (W, H) keeps the bound, nil otherwise.
func TestCertifiedPlane(t *testing.T) {
	ctx := context.Background()
	for _, tc := range certifiedCases() {
		g := tc.g
		sr, w := g.AugSemiring(), g.WeightMatrix()
		for _, sources := range [][]int32{{0}, {3, 17, 29}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
			inS := make([]bool, g.N)
			for _, s := range sources {
				inS[s] = true
			}
			for maxH := 1; maxH <= g.N; maxH += max(1, maxH/2) {
				want := certifiedRef(g, sources, maxH)
				for _, workers := range []int{1, 0} {
					got, err := CertifiedPlane(ctx, sr, w, inS, maxH, workers)
					if err != nil {
						t.Fatal(err)
					}
					if (got == nil) != (want == nil) || !slices.Equal(got, want) {
						t.Fatalf("%s sources %v maxH=%d workers=%d: got %v, want %v", tc.name, sources, maxH, workers, got, want)
					}
					ReleasePlane(got)
				}
			}
		}
	}
}

// TestCertifiedPlaneCancel: the searches poll once before their pass, at
// the start of every search and once per pollSettles settled nodes, so a
// full pass over q sources of n nodes each polls 1 + q·(1 + n/pollSettles)
// times; canceled at any of those polls they poll no more and return
// context.Canceled and no plane, and the next call answers what a cold
// one does. At maxH = 2 the searches stop on the hop bound instead, maybe
// before poll p, and whatever stopped them no plane is served. Run under
// -race too.
func TestCertifiedPlaneCancel(t *testing.T) {
	g := randGraph(600, 900, 9, 41)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	sources := []int32{2, 300, 599}
	inS := make([]bool, g.N)
	for _, s := range sources {
		inS[s] = true
	}
	for _, maxH := range []int{g.N, 2} {
		cold := certifiedRef(g, sources, maxH)
		for _, workers := range []int{1, 0} {
			full := &pollCtx{Context: context.Background(), k: math.MaxInt64}
			plane, err := CertifiedPlane(full, sr, w, inS, maxH, workers)
			if err != nil {
				t.Fatal(err)
			}
			ReleasePlane(plane)
			polls := full.calls.Load()
			if want := int64(1 + len(sources)*(1+g.N/pollSettles)); cold != nil && polls != want {
				t.Fatalf("maxH=%d workers=%d: a full pass polled %d times, want %d", maxH, workers, polls, want)
			}
			for p := int64(1); p <= polls; p++ {
				ctx := &pollCtx{Context: context.Background(), k: p}
				plane, err := CertifiedPlane(ctx, sr, w, inS, maxH, workers)
				name := fmt.Sprintf("maxH=%d workers=%d canceled at poll %d of %d", maxH, workers, p, polls)
				switch {
				case cold == nil && err == nil: // an aborted pass may stop before poll p
					if plane != nil {
						t.Fatalf("%s: a pass past the hop bound served a plane", name)
					}
				case !errors.Is(err, context.Canceled) || plane != nil:
					t.Fatalf("%s: got (%v, %v), want context.Canceled and no plane", name, plane != nil, err)
				case ctx.calls.Load() != p:
					t.Fatalf("%s: the searches polled %d times", name, ctx.calls.Load())
				}
				next, err := CertifiedPlane(context.Background(), sr, w, inS, maxH, workers)
				if err != nil {
					t.Fatal(err)
				}
				if (next == nil) != (cold == nil) || !slices.Equal(next, cold) {
					t.Fatalf("%s: the next pass differs from a cold one", name)
				}
				ReleasePlane(next)
			}
		}
	}
}
