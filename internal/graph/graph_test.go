package graph

import (
	"reflect"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// line returns a path graph 0-1-2-...-n-1 with the given uniform weight.
func line(n int, w int64) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, w)
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("want error for self-loop")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("want error for out-of-range")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Error("want error for negative weight")
	}
	if err := g.AddEdge(0, 1, 3); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.M() != 1 {
		t.Errorf("M=%d, want 1", g.M())
	}
}

func TestDijkstraLine(t *testing.T) {
	g := line(6, 2)
	d := g.Dijkstra(0)
	for v := 0; v < 6; v++ {
		if d[v] != int64(2*v) {
			t.Errorf("d[%d]=%d, want %d", v, d[v], 2*v)
		}
	}
}

func TestDijkstraAugPrefersFewerHops(t *testing.T) {
	// Two shortest paths of weight 4 from 0 to 3: 0-1-2-3 (3 hops, w=4 via
	// 1+1+2... adjust) vs direct heavy edges. Construct: 0-3 weight 4
	// (1 hop) and 0-1-2-3 each weight 1,1,2 => also 4 (3 hops).
	g := New(4)
	g.MustAddEdge(0, 3, 4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 2)
	d := g.DijkstraAug(0)
	if d[3].W != 4 || d[3].H != 1 {
		t.Errorf("d[3]=%v, want (4,1): minimum hops among shortest paths", d[3])
	}
}

func TestDijkstraDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	d := g.Dijkstra(0)
	if d[2] < semiring.Inf || d[3] < semiring.Inf {
		t.Error("unreachable nodes must be at infinity")
	}
	if _, connected := g.Diameter(); connected {
		t.Error("graph must report disconnected")
	}
}

func TestDiameterAndSPD(t *testing.T) {
	g := line(5, 3)
	diam, connected := g.Diameter()
	if !connected {
		t.Fatal("line must be connected")
	}
	if diam != 12 {
		t.Errorf("diameter=%d, want 12", diam)
	}
	if spd := g.SPD(); spd != 4 {
		t.Errorf("SPD=%d, want 4", spd)
	}
	// Adding a heavy shortcut leaves shortest paths long, SPD unchanged.
	g.MustAddEdge(0, 4, 100)
	if spd := g.SPD(); spd != 4 {
		t.Errorf("SPD with heavy shortcut=%d, want 4", spd)
	}
}

func TestWeightRow(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(0, 2, 7)
	row := g.WeightRow(0)
	if len(row) != 3 {
		t.Fatalf("row size %d, want 3 (diagonal + 2 edges)", len(row))
	}
	if row[0].Col != 0 || row[0].Val != (semiring.WH{}) {
		t.Errorf("diagonal entry wrong: %+v", row[0])
	}
	if row[1].Val != (semiring.WH{W: 5, H: 1}) || row[2].Val != (semiring.WH{W: 7, H: 1}) {
		t.Errorf("edge entries wrong: %+v", row)
	}
}

func TestWeightRowParallelEdgesCollapse(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 9)
	g.MustAddEdge(0, 1, 4)
	row := g.WeightRow(0)
	if len(row) != 2 {
		t.Fatalf("row size %d, want 2", len(row))
	}
	if row[1].Val.W != 4 {
		t.Errorf("parallel edges must keep the lighter: got %+v", row[1].Val)
	}
}

func TestWeightMatrixPowerMatchesDijkstra(t *testing.T) {
	// The n-th augmented power of W gives exactly DijkstraAug (§3.1).
	g := New(6)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 4, 9)
	g.MustAddEdge(4, 3, 1)
	g.MustAddEdge(4, 5, 3)
	sr := g.AugSemiring()
	pow := g.WeightMatrix()
	for i := 0; i < 3; i++ { // W^8 >= W^6: closure reached
		pow = matrix.MulRef[semiring.WH](sr, pow, pow)
	}
	for v := 0; v < g.N; v++ {
		want := g.DijkstraAug(v)
		for u := 0; u < g.N; u++ {
			got := pow.Get(sr, v, u)
			if !sr.Eq(got, want[u]) {
				t.Errorf("W^8[%d,%d]=%v, want %v", v, u, got, want[u])
			}
		}
	}
}

// TestMaxWeightForFitsSemiring: the heaviest weight MaxWeightFor admits
// still sizes AugSemiring without tripping its overflow panic.
func TestMaxWeightForFitsSemiring(t *testing.T) {
	for _, n := range []int{1, 2, 8, 1024, 1 << 20} {
		g := New(n)
		if n > 1 {
			g.MustAddEdge(0, 1, MaxWeightFor(n))
		}
		g.AugSemiring() // panics on overflow
	}
}

// TestCloneRowsAreIndependent: a clone's adjacency lists share one slab,
// yet appending to one of them - as AddEdge does - leaves the next list
// in the slab and the original graph as they were.
func TestCloneRowsAreIndependent(t *testing.T) {
	g := line(4, 2)
	c := g.Clone()
	if !reflect.DeepEqual(c, g) {
		t.Fatalf("clone %v differs from %v", c.Adj, g.Adj)
	}
	next := slices.Clone(c.Adj[2])
	c.Adj[1] = append(c.Adj[1], Edge{To: 3, W: 7})
	if !slices.Equal(c.Adj[2], next) {
		t.Errorf("appending to row 1 of the clone changed row 2: %v, was %v", c.Adj[2], next)
	}
	c.MustAddEdge(0, 3, 5)
	c.Adj[2][0].W = 9
	if want := line(4, 2); !reflect.DeepEqual(g, want) {
		t.Errorf("mutating the clone changed the original: %v", g.Adj)
	}
}
