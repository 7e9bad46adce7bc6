package hopset

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/matrix"
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

// buildHopset runs the collective construction and gathers results.
func buildHopset(t *testing.T, g *graph.Graph, p Params) ([]*Result, cc.Stats) {
	t.Helper()
	sr := g.AugSemiring()
	board := hitting.NewBoard(g.N)
	results := make([]*Result, g.N)
	stats, err := cc.Run(context.Background(), cc.Config{N: g.N}, func(nd *cc.Node) error {
		res, err := Build(nd, sr, g.WeightRow(nd.ID), board, p)
		if err != nil {
			return err
		}
		results[nd.ID] = res
		return nil
	})
	if err != nil {
		t.Fatalf("hopset build failed: %v", err)
	}
	return results, stats
}

// betaHopDistances computes exact β-hop-limited all-pairs distances of
// G ∪ H by square-and-multiply over plain min-plus.
func betaHopDistances(g *graph.Graph, results []*Result, beta int) [][]int64 {
	sr := semiring.NewMinPlus(semiring.Inf - 1)
	n := g.N
	base := matrix.New[int64](n)
	for v := 0; v < n; v++ {
		row := make(matrix.Row[int64], 0, 8)
		row = append(row, matrix.Entry[int64]{Col: int32(v), Val: 0})
		for _, e := range g.Adj[v] {
			row = append(row, matrix.Entry[int64]{Col: e.To, Val: e.W})
		}
		for _, e := range results[v].Row {
			row = append(row, matrix.Entry[int64]{Col: e.Col, Val: e.Val.W})
		}
		base.Rows[v] = dedupMin(matrix.SortRow(row))
	}
	// pow = base^beta via binary exponentiation (base includes the
	// diagonal, so base^t gives <= t-hop paths).
	pow := matrix.Identity[int64](sr, n)
	sq := base
	for e := beta; e > 0; e >>= 1 {
		if e&1 == 1 {
			pow = matrix.MulRef[int64](sr, pow, sq)
		}
		sq = matrix.MulRef[int64](sr, sq, sq)
	}
	out := make([][]int64, n)
	for v := 0; v < n; v++ {
		out[v] = make([]int64, n)
		for u := 0; u < n; u++ {
			out[v][u] = pow.Get(sr, v, u)
		}
	}
	return out
}

func dedupMin(r matrix.Row[int64]) matrix.Row[int64] {
	out := r[:0]
	for _, e := range r {
		if len(out) > 0 && out[len(out)-1].Col == e.Col {
			if e.Val < out[len(out)-1].Val {
				out[len(out)-1].Val = e.Val
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// TestHopsetGuarantee is the defining property of a (β,ε)-hopset:
// d_G(u,v) <= d^β_{G∪H}(u,v) <= (1+ε)·d_G(u,v) for all pairs.
func TestHopsetGuarantee(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		p    Params
	}{
		{"random-paper", randGraph(24, 20, 10, 1), Paper(0.5)},
		{"random-practical", randGraph(32, 30, 20, 2), Practical(0.5)},
		{"tree", randGraph(20, 0, 8, 3), Paper(1.0)},
		{"line", lineGraph(24, 5), Practical(0.25)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results, _ := buildHopset(t, tc.g, tc.p)
			beta := results[0].Beta
			hop := betaHopDistances(tc.g, results, beta)
			if err := stretch.Check(tc.g, nil, hop, stretch.OnePlus(tc.p.Eps)).Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func lineGraph(n int, w int64) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, w)
	}
	return g
}

// TestHopsetSize checks Claim 21: O(n^{3/2} log n) edges.
func TestHopsetSize(t *testing.T) {
	g := randGraph(48, 100, 10, 4)
	results, _ := buildHopset(t, g, Practical(0.5))
	total := 0
	for _, r := range results {
		total += len(r.Row) // each edge at both endpoints
	}
	total /= 2 // both endpoints count each edge
	n := float64(g.N)
	bound := 4 * n * math.Sqrt(n) * math.Log2(n)
	if float64(total) > bound {
		t.Errorf("hopset has %d edges, exceeds bound %f", total, bound)
	}
}

// TestBunchProperty (white box): for v outside A_1, every bunch member is
// strictly closer than p(v), and the p(v) edge is present (§4.1).
func TestBunchProperty(t *testing.T) {
	g := randGraph(28, 40, 10, 5)
	results, _ := buildHopset(t, g, Practical(0.5))
	for v, r := range results {
		if r.InA1[v] {
			continue
		}
		if r.PV < 0 {
			t.Fatalf("node %d has no pivot", v)
		}
		if d := g.Dijkstra(v)[r.PV]; d != r.DPV.W {
			t.Errorf("node %d: pivot distance %d, want %d", v, r.DPV.W, d)
		}
	}
}

// TestPivotsAreHittingSetMembers: p(v) ∈ A_1 and d(v,p(v)) = d(v,A_1)
// restricted to N_k(v).
func TestPivotsAreHittingSetMembers(t *testing.T) {
	g := randGraph(24, 30, 10, 6)
	results, _ := buildHopset(t, g, Practical(0.5))
	for v, r := range results {
		if r.PV >= 0 && !r.InA1[r.PV] {
			t.Errorf("node %d: pivot %d not in A_1", v, r.PV)
		}
	}
}

func TestHopsetDeterministic(t *testing.T) {
	g := randGraph(20, 24, 10, 7)
	r1, s1 := buildHopset(t, g, Practical(0.5))
	r2, s2 := buildHopset(t, g, Practical(0.5))
	if s1.String() != s2.String() {
		t.Errorf("stats differ: %v vs %v", s1.String(), s2.String())
	}
	for v := range r1 {
		if len(r1[v].Row) != len(r2[v].Row) {
			t.Fatalf("node %d: hopset rows differ", v)
		}
		for i := range r1[v].Row {
			if r1[v].Row[i] != r2[v].Row[i] {
				t.Fatalf("node %d entry %d differs", v, i)
			}
		}
	}
}

func TestBuildRejectsBadEps(t *testing.T) {
	g := lineGraph(4, 1)
	sr := g.AugSemiring()
	board := hitting.NewBoard(g.N)
	_, err := cc.Run(context.Background(), cc.Config{N: g.N}, func(nd *cc.Node) error {
		_, err := Build(nd, sr, g.WeightRow(nd.ID), board, Params{Eps: 0})
		if err == nil {
			return nil
		}
		return err
	})
	if err == nil {
		t.Fatal("want error for eps=0")
	}
	for _, eps := range []float64{0, math.NaN()} {
		if _, err := (Params{Eps: eps}).Beta(g.N); err == nil {
			t.Fatalf("Params.Beta: want error for eps=%v", eps)
		}
	}
}

// TestArtifactRoundTrip: Collect followed by At must reproduce every
// node's Result exactly, and the artifact's shared fields must match.
func TestArtifactRoundTrip(t *testing.T) {
	g := randGraph(24, 30, 8, 9)
	results, _ := buildHopset(t, g, Practical(0.5))
	art, err := Collect(results)
	if err != nil {
		t.Fatal(err)
	}
	if art.N != g.N || art.Beta != results[0].Beta || art.K != results[0].K {
		t.Errorf("artifact metadata wrong: %+v", art)
	}
	edges := 0
	for v, want := range results {
		got := art.At(v)
		if got.Beta != want.Beta || got.K != want.K || got.PV != want.PV || got.DPV != want.DPV {
			t.Errorf("node %d: rehydrated scalars differ: %+v vs %+v", v, got, want)
		}
		if len(got.Row) != len(want.Row) {
			t.Fatalf("node %d: row length %d vs %d", v, len(got.Row), len(want.Row))
		}
		for i := range got.Row {
			if got.Row[i] != want.Row[i] {
				t.Fatalf("node %d row[%d]: %+v vs %+v", v, i, got.Row[i], want.Row[i])
			}
		}
		for u, in := range got.InA1 {
			if in != want.InA1[u] {
				t.Fatalf("node %d: InA1[%d] differs", v, u)
			}
		}
		edges += len(want.Row)
	}
	if art.Edges() != edges/2 {
		t.Errorf("Edges() = %d, want %d", art.Edges(), edges/2)
	}
}

// TestArtifactCollectErrors: Collect rejects empty, incomplete and
// inconsistent result sets.
func TestArtifactCollectErrors(t *testing.T) {
	if _, err := Collect(nil); err == nil {
		t.Error("want error for empty results")
	}
	g := randGraph(9, 6, 4, 10)
	results, _ := buildHopset(t, g, Practical(0.5))
	hole := append([]*Result(nil), results...)
	hole[4] = nil
	if _, err := Collect(hole); err == nil {
		t.Error("want error for missing node result")
	}
	bad := append([]*Result(nil), results...)
	cp := *results[2]
	cp.Beta++
	bad[2] = &cp
	if _, err := Collect(bad); err == nil {
		t.Error("want error for inconsistent beta")
	}
}
