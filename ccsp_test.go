package ccsp

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/congestedclique/ccsp/internal/stretch"
)

// testGraph builds a connected random weighted graph through the public
// API.
func testGraph(n, extra int, maxW int64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	gr := NewGraph(n)
	for v := 1; v < n; v++ {
		gr.MustAddEdge(v, rng.Intn(v), rng.Int63n(maxW)+1)
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			gr.MustAddEdge(u, v, rng.Int63n(maxW)+1)
		}
	}
	return gr
}

func TestGraphBuilder(t *testing.T) {
	gr := NewGraph(4)
	if err := gr.AddEdge(0, 0, 1); err == nil {
		t.Error("want self-loop rejection")
	}
	if err := gr.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if gr.N() != 4 || gr.M() != 1 || gr.MaxWeight() != 2 {
		t.Errorf("builder metadata wrong: n=%d m=%d w=%d", gr.N(), gr.M(), gr.MaxWeight())
	}
	if gr.Unweighted() {
		t.Error("graph with weight-2 edge reported unweighted")
	}
	deg := 0
	gr.Neighbors(0, func(int, int64) { deg++ })
	if deg != 1 || gr.Degree(0) != 1 {
		t.Error("neighbor iteration wrong")
	}
	if _, err := FromEdges(3, [][3]int64{{0, 1, 1}, {1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromEdges(3, [][3]int64{{0, 9, 1}}); err == nil {
		t.Error("want out-of-range rejection")
	}
}

func TestOptionsValidation(t *testing.T) {
	gr := testGraph(8, 4, 5, 1)
	if _, err := APSPWeighted(context.Background(), gr, Options{Epsilon: 2}); err == nil {
		t.Error("want epsilon validation error")
	}
	if _, err := MSSP(context.Background(), gr, nil, Options{}); err == nil {
		t.Error("want no-sources error")
	}
	if _, err := MSSP(context.Background(), gr, []int{99}, Options{}); err == nil {
		t.Error("want source range error")
	}
	if _, err := SSSP(context.Background(), gr, -1, Options{}); err == nil {
		t.Error("want source range error")
	}
	if _, err := KNearest(context.Background(), gr, 0, Options{}); err == nil {
		t.Error("want k validation error")
	}
	if _, err := SourceDetection(context.Background(), gr, []int{0}, 0, 1, Options{}); err == nil {
		t.Error("want d validation error")
	}
	var nilGraph *Graph
	if _, err := SSSP(context.Background(), nilGraph, 0, Options{}); err == nil {
		t.Error("want nil graph error")
	}
}

func TestAPSPWeightedPublic(t *testing.T) {
	gr := testGraph(24, 30, 8, 2)
	eps := 0.5
	res, err := APSPWeighted(context.Background(), gr, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if err := stretch.Check(gr.g, nil, res.Dist, stretch.TwoPlusW(eps, gr.MaxWeight())).Err(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalRounds <= 0 || res.Stats.Messages <= 0 {
		t.Error("stats not populated")
	}
}

func TestAPSPUnweightedPublic(t *testing.T) {
	gr := NewGraph(20)
	rng := rand.New(rand.NewSource(5))
	for v := 1; v < 20; v++ {
		gr.MustAddEdge(v, rng.Intn(v), 1)
	}
	for e := 0; e < 15; e++ {
		u, v := rng.Intn(20), rng.Intn(20)
		if u != v {
			gr.MustAddEdge(u, v, 1)
		}
	}
	if !gr.Unweighted() {
		t.Fatal("test graph must be unweighted")
	}
	eps := 0.5
	res, err := APSPUnweighted(context.Background(), gr, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if err := stretch.Check(gr.g, nil, res.Dist, stretch.TwoPlus(eps)).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestAPSPWeighted3Public(t *testing.T) {
	gr := testGraph(20, 24, 6, 3)
	eps := 0.5
	res, err := APSPWeighted3(context.Background(), gr, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if err := stretch.Check(gr.g, nil, res.Dist, stretch.ThreePlus(eps)).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMSSPPublic(t *testing.T) {
	gr := testGraph(25, 30, 10, 4)
	sources := []int{3, 7, 11, 19}
	eps := 0.5
	res, err := MSSP(context.Background(), gr, sources, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sources, sources) {
		t.Fatalf("sources %v, want %v", res.Sources, sources)
	}
	if err := stretch.Check(gr.g, sources, res.Dist, stretch.OnePlus(eps)).Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Distance(0, 5); err == nil {
		t.Error("want error for non-source query")
	}
	// Duplicate sources are deduplicated.
	res2, err := MSSP(context.Background(), gr, []int{3, 3, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Sources) != 1 {
		t.Errorf("duplicated sources not deduped: %v", res2.Sources)
	}
}

func TestSSSPPublicExactAndPath(t *testing.T) {
	gr := testGraph(30, 40, 10, 6)
	src := 4
	res, err := SSSP(context.Background(), gr, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := gr.g.Dijkstra(src)
	for v := 0; v < gr.N(); v++ {
		if res.Dist[v] != ref[v] {
			t.Fatalf("d[%d]=%d, want %d", v, res.Dist[v], ref[v])
		}
	}
	for v := 0; v < gr.N(); v++ {
		if ref[v] >= Unreachable {
			if res.PathTo(gr, v) != nil {
				t.Fatalf("path to unreachable %d", v)
			}
			continue
		}
		path := res.PathTo(gr, v)
		if len(path) == 0 || path[0] != src || path[len(path)-1] != v {
			t.Fatalf("bad path to %d: %v", v, path)
		}
		var total int64
		for i := 1; i < len(path); i++ {
			best := int64(-1)
			gr.Neighbors(path[i-1], func(u int, w int64) {
				if u == path[i] && (best < 0 || w < best) {
					best = w
				}
			})
			if best < 0 {
				t.Fatalf("path step %d-%d is not an edge", path[i-1], path[i])
			}
			total += best
		}
		if total != ref[v] {
			t.Fatalf("path to %d has weight %d, want %d", v, total, ref[v])
		}
	}
}

// TestSSSPPathToUnit pins PathTo's behavior on a handcrafted graph: a
// reachable target yields the unique shortest path, the source yields the
// single-node path, and an unreachable target yields nil.
func TestSSSPPathToUnit(t *testing.T) {
	// 0 --2-- 1 --3-- 2, with node 3 disconnected.
	gr := NewGraph(4)
	gr.MustAddEdge(0, 1, 2)
	gr.MustAddEdge(1, 2, 3)
	res, err := SSSP(context.Background(), gr, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.PathTo(gr, 2), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("PathTo(2) = %v, want %v", got, want)
	}
	if got, want := res.PathTo(gr, 0), []int{0}; !reflect.DeepEqual(got, want) {
		t.Errorf("PathTo(source) = %v, want %v", got, want)
	}
	if got := res.PathTo(gr, 3); got != nil {
		t.Errorf("PathTo(unreachable) = %v, want nil", got)
	}
}

func TestDiameterPublic(t *testing.T) {
	gr := NewGraph(24)
	for v := 0; v+1 < 24; v++ {
		gr.MustAddEdge(v, v+1, 1)
	}
	eps := 0.5
	res, err := Diameter(context.Background(), gr, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	d := int64(23)
	if res.Estimate < 2*d/3 || float64(res.Estimate) > stretch.OnePlus(eps)(0, 23, d)+1e-9 {
		t.Errorf("diameter estimate %d outside [2D/3, (1+ε)D] for D=%d", res.Estimate, d)
	}
}

func TestKNearestPublic(t *testing.T) {
	gr := testGraph(20, 25, 8, 7)
	k := 6
	res, err := KNearest(context.Background(), gr, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < gr.N(); v++ {
		nb := res.Neighbors[v]
		if len(nb) != k {
			t.Fatalf("node %d has %d neighbors, want %d", v, len(nb), k)
		}
		if nb[0].Node != v || nb[0].Dist != 0 || nb[0].FirstHop != -1 {
			t.Fatalf("node %d: first entry must be self: %+v", v, nb[0])
		}
		ref := gr.g.Dijkstra(v)
		for i, e := range nb {
			if e.Dist != ref[e.Node] {
				t.Fatalf("node %d neighbor %d: dist %d, want %d", v, e.Node, e.Dist, ref[e.Node])
			}
			if i > 0 && nb[i-1].Dist > e.Dist {
				t.Fatalf("node %d: neighbors not sorted", v)
			}
			if e.Node != v {
				// The witness must be adjacent and on a shortest path.
				ok := false
				gr.Neighbors(v, func(u int, w int64) {
					if u == e.FirstHop && w+gr.g.Dijkstra(u)[e.Node] == e.Dist {
						ok = true
					}
				})
				if !ok {
					t.Fatalf("node %d neighbor %d: witness %d invalid", v, e.Node, e.FirstHop)
				}
			}
		}
	}
}

func TestSourceDetectionPublic(t *testing.T) {
	gr := NewGraph(12)
	for v := 0; v+1 < 12; v++ {
		gr.MustAddEdge(v, v+1, 1)
	}
	res, err := SourceDetection(context.Background(), gr, []int{0, 11}, 3, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 5 is 5 and 6 hops from the sources: nothing within 3 hops.
	if len(res.Detected[5]) != 0 {
		t.Errorf("node 5 detected %v within 3 hops", res.Detected[5])
	}
	// Node 2 sees source 0 at distance 2.
	found := false
	for _, e := range res.Detected[2] {
		if e.Node == 0 && e.Dist == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("node 2 missed source 0: %v", res.Detected[2])
	}
}

func TestStatsString(t *testing.T) {
	gr := testGraph(10, 5, 3, 8)
	res, err := SSSP(context.Background(), gr, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats.String(); s == "" {
		t.Error("empty stats string")
	}
	if res.Stats.Nodes != 10 {
		t.Errorf("stats nodes=%d, want 10", res.Stats.Nodes)
	}
	if res.Stats.Words != res.Stats.Messages*4 {
		t.Errorf("words=%d, want 4x messages", res.Stats.Words)
	}
}
