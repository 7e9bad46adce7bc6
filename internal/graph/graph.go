// Package graph provides the weighted undirected graph representation shared
// by all algorithms, plus sequential ground-truth computations (Dijkstra over
// the plain and augmented min-plus orders, BFS, diameter, shortest-path
// diameter) used to verify the distributed algorithms and measure stretch.
package graph

import (
	"container/heap"
	"fmt"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Edge is a directed half-edge in an adjacency list.
type Edge struct {
	To int32
	W  int64
}

// Graph is an undirected graph with non-negative integer edge weights
// (paper §1.5). Both half-edges of every undirected edge are stored.
type Graph struct {
	N   int
	Adj [][]Edge
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	return &Graph{N: n, Adj: make([][]Edge, n)}
}

// AddEdge adds the undirected edge {u, v} with weight w. Self-loops and
// negative weights are rejected; parallel edges keep the lighter weight at
// query time (both are stored).
func (g *Graph) AddEdge(u, v int, w int64) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || v < 0 || u >= g.N || v >= g.N {
		return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
	}
	if w < 0 {
		return fmt.Errorf("graph: negative weight %d", w)
	}
	g.Adj[u] = append(g.Adj[u], Edge{To: int32(v), W: w})
	g.Adj[v] = append(g.Adj[v], Edge{To: int32(u), W: w})
	return nil
}

// MustAddEdge is AddEdge for statically valid construction code.
func (g *Graph) MustAddEdge(u, v int, w int64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy: mutating the copy's adjacency lists (or the
// original's) never affects the other. The copy's lists are
// capacity-clipped windows of one slab, so an append to one moves it out
// rather than into its neighbour. Used by the engine to decouple its
// cached artifacts from later mutation of the caller's graph.
func (g *Graph) Clone() *Graph {
	total := 0
	for _, adj := range g.Adj {
		total += len(adj)
	}
	c := &Graph{N: g.N, Adj: make([][]Edge, g.N)}
	slab := make([]Edge, 0, total)
	for v, adj := range g.Adj {
		if len(adj) == 0 {
			continue
		}
		start := len(slab)
		slab = append(slab, adj...)
		c.Adj[v] = slab[start:len(slab):len(slab)]
	}
	return c
}

// M returns the number of stored half-edges divided by two.
func (g *Graph) M() int {
	total := 0
	for _, adj := range g.Adj {
		total += len(adj)
	}
	return total / 2
}

// MaxW returns the maximum edge weight (at least 1 for use in bounds).
func (g *Graph) MaxW() int64 {
	var mx int64 = 1
	for _, adj := range g.Adj {
		for _, e := range adj {
			if e.W > mx {
				mx = e.W
			}
		}
	}
	return mx
}

// MaxWeightFor returns the largest edge weight a graph on n >= 1 nodes may
// carry: AugSemiring packs path weights up to n·w and hop counts up to n
// into one int64 rank, and a heavier edge would overflow it
// (semiring.NewAugMinPlus panics on exactly this bound).
func MaxWeightFor(n int) int64 {
	return (semiring.Inf/int64(n+3) - 3) / int64(n)
}

// MaxDegree returns the maximum node degree.
func (g *Graph) MaxDegree() int {
	mx := 0
	for _, adj := range g.Adj {
		if len(adj) > mx {
			mx = len(adj)
		}
	}
	return mx
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// AugSemiring returns the augmented min-plus semiring sized for this graph:
// weights up to n·maxW and hop counts up to n.
func (g *Graph) AugSemiring() semiring.AugMinPlus {
	return semiring.NewAugMinPlus(int64(g.N)*g.MaxW()+1, int64(g.N)+1)
}

// WeightRow returns row v of the augmented weight matrix W of §3.1:
// (0,0) on the diagonal, (w(v,u), 1) for edges, implicit (∞,∞) elsewhere.
// Parallel edges collapse to the lightest.
func (g *Graph) WeightRow(v int) matrix.Row[semiring.WH] {
	row := make(matrix.Row[semiring.WH], 0, len(g.Adj[v])+1)
	row = append(row, matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{}})
	for _, e := range g.Adj[v] {
		row = append(row, matrix.Entry[semiring.WH]{Col: e.To, Val: semiring.WH{W: e.W, H: 1}})
	}
	row = matrix.SortRow(row)
	// Collapse duplicate columns, keeping the lex-smallest.
	out := row[:0]
	for _, e := range row {
		if len(out) > 0 && out[len(out)-1].Col == e.Col {
			if semiring.LessWH(e.Val, out[len(out)-1].Val) {
				out[len(out)-1].Val = e.Val
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// WeightRowRouted returns row v of the routed weight matrix: like
// WeightRow, but every edge entry carries its first hop as witness, so
// distance products produce routing tables (§3.1).
func (g *Graph) WeightRowRouted(v int) matrix.Row[semiring.WHF] {
	base := g.WeightRow(v)
	row := make(matrix.Row[semiring.WHF], 0, len(base))
	for _, e := range base {
		fh := e.Col
		if int(e.Col) == v {
			fh = -1
		}
		row = append(row, matrix.Entry[semiring.WHF]{Col: e.Col, Val: semiring.WHF{W: e.Val.W, H: e.Val.H, FH: fh}})
	}
	return row
}

// WeightMatrix returns the full augmented weight matrix (sequential helper
// for references and tests).
func (g *Graph) WeightMatrix() *matrix.Mat[semiring.WH] {
	m := matrix.New[semiring.WH](g.N)
	for v := 0; v < g.N; v++ {
		m.Rows[v] = g.WeightRow(v)
	}
	return m
}

type pqItem struct {
	v    int32
	dist semiring.WH
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return semiring.LessWH(q[i].dist, q[j].dist)
	}
	return q[i].v < q[j].v
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// DijkstraAug computes, for every node, the lexicographically minimal
// (distance, hops) pair from src over the augmented min-plus order: the
// true distance together with the minimum hop count among shortest paths.
// This is the ground truth for the augmented distance products of §3.1.
func (g *Graph) DijkstraAug(src int) []semiring.WH {
	dist := make([]semiring.WH, g.N)
	for i := range dist {
		dist[i] = semiring.InfWH
	}
	dist[src] = semiring.WH{}
	done := make([]bool, g.N)
	q := &pq{{v: int32(src), dist: semiring.WH{}}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, e := range g.Adj[it.v] {
			cand := semiring.WH{W: it.dist.W + e.W, H: it.dist.H + 1}
			if semiring.LessWH(cand, dist[e.To]) {
				dist[e.To] = cand
				heap.Push(q, pqItem{v: e.To, dist: cand})
			}
		}
	}
	return dist
}

// Dijkstra computes single-source distances from src.
func (g *Graph) Dijkstra(src int) []int64 {
	aug := g.DijkstraAug(src)
	out := make([]int64, g.N)
	for i, d := range aug {
		if d.W >= semiring.Inf {
			out[i] = semiring.Inf
		} else {
			out[i] = d.W
		}
	}
	return out
}

// Diameter returns the exact weighted diameter (max finite distance), and
// whether the graph is connected.
func (g *Graph) Diameter() (int64, bool) {
	var diam int64
	connected := true
	for v := 0; v < g.N; v++ {
		for _, d := range g.Dijkstra(v) {
			switch {
			case d >= semiring.Inf:
				connected = false
			case d > diam:
				diam = d
			}
		}
	}
	return diam, connected
}

// SPD returns the shortest-path diameter: the maximum, over connected
// pairs, of the minimal hop count among shortest paths (the quantity that
// bounds Bellman-Ford; see §7.1 and [48]).
func (g *Graph) SPD() int {
	spd := 0
	for v := 0; v < g.N; v++ {
		for _, d := range g.DijkstraAug(v) {
			if d.W < semiring.Inf && int(d.H) > spd {
				spd = int(d.H)
			}
		}
	}
	return spd
}
