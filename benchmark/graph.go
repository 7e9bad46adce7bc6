package main

import (
	"container/heap"
	"fmt"
	"hash/fnv"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/internal/graph"
)

// prng is splitmix64. The harness carries its own generator so that the
// inputs of a seed do not depend on the Go release's math/rand.
type prng struct{ s uint64 }

// newPRNG derives an independent stream from the run seed and a label.
func newPRNG(seed int64, label string) *prng {
	h := fnv.New64a()
	h.Write([]byte(label))
	p := &prng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()}
	p.next()
	return p
}

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); the modulo bias is below 2^-50 at the
// sizes used here.
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// distinct returns q distinct values in [0, n), in draw order.
func (p *prng) distinct(q, n int) []int {
	out := make([]int, 0, q)
	seen := make(map[int]bool, q)
	for len(out) < q {
		v := p.intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

type edge struct{ u, v int }

type halfEdge struct{ to, idx int32 }

// testGraph is the harness's own copy of the input: a fixed simple
// connected edge set plus one weight vector per graph version (the mutate
// workload only reweights, so versions share the topology).
type testGraph struct {
	n     int
	edges []edge
	adj   [][]halfEdge
}

const maxWeight = 10

// genGraph builds the E17/E18/E20 family: a random spanning tree (node v
// attaches to a uniform earlier node) plus 3n distinct extra edges, so
// m = 4n-1, with integer weights 1..10.
func genGraph(n int, seed int64) (*testGraph, []int64) {
	rng := newPRNG(seed, "graph")
	g := &testGraph{n: n, adj: make([][]halfEdge, n)}
	var w []int64
	seen := make(map[edge]bool, 4*n)
	add := func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[edge{u, v}] {
			return false
		}
		seen[edge{u, v}] = true
		idx := int32(len(g.edges))
		g.edges = append(g.edges, edge{u, v})
		g.adj[u] = append(g.adj[u], halfEdge{int32(v), idx})
		g.adj[v] = append(g.adj[v], halfEdge{int32(u), idx})
		w = append(w, int64(1+rng.intn(maxWeight)))
		return true
	}
	for v := 1; v < n; v++ {
		add(rng.intn(v), v)
	}
	for extra := 0; extra < 3*n; {
		if add(rng.intn(n), rng.intn(n)) {
			extra++
		}
	}
	return g, w
}

// hash is the FNV-64a of the weighted edge list in generation order.
func (g *testGraph) hash(w []int64) uint64 {
	h := fnv.New64a()
	for i, e := range g.edges {
		fmt.Fprintf(h, "%d %d %d\n", e.u, e.v, w[i])
	}
	return h.Sum64()
}

// public builds the engine's input graph at the given weights.
func (g *testGraph) public(w []int64) *ccsp.Graph {
	gr := ccsp.NewGraph(g.n)
	for i, e := range g.edges {
		gr.MustAddEdge(e.u, e.v, w[i])
	}
	return gr
}

// internal builds the layer-level graph the traced pass derives its own
// weight matrix from.
func (g *testGraph) internal(w []int64) *graph.Graph {
	ig := graph.New(g.n)
	for i, e := range g.edges {
		ig.MustAddEdge(e.u, e.v, w[i])
	}
	return ig
}

type distHeap []distItem

type distItem struct {
	d int64
	v int32
}

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstra is the reference the oracle checks every answer against; -1
// marks unreachable nodes (none exist: the graph is connected).
func (g *testGraph) dijkstra(w []int64, src int) []int64 {
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = -1
	}
	h := &distHeap{{0, int32(src)}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if dist[it.v] >= 0 {
			continue
		}
		dist[it.v] = it.d
		for _, he := range g.adj[it.v] {
			if dist[he.to] < 0 {
				heap.Push(h, distItem{it.d + w[he.idx], he.to})
			}
		}
	}
	return dist
}
