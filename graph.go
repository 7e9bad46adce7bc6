package ccsp

import (
	"fmt"

	"github.com/congestedclique/ccsp/internal/graph"
)

// Graph is an undirected graph with non-negative integer edge weights, the
// input of every algorithm in this package. Node IDs are 0..n-1; in the
// Congested Clique model each node is one processor.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph {
	return &Graph{g: graph.New(n)}
}

// AddEdge adds the undirected edge {u, v} with weight w >= 0. Self-loops
// are rejected; parallel edges keep the lighter one.
func (gr *Graph) AddEdge(u, v int, w int64) error {
	return gr.g.AddEdge(u, v, w)
}

// MustAddEdge is AddEdge for statically valid construction code; it panics
// on invalid edges.
func (gr *Graph) MustAddEdge(u, v int, w int64) {
	gr.g.MustAddEdge(u, v, w)
}

// N returns the number of nodes.
func (gr *Graph) N() int { return gr.g.N }

// M returns the number of undirected edges.
func (gr *Graph) M() int { return gr.g.M() }

// MaxWeight returns the maximum edge weight (at least 1).
func (gr *Graph) MaxWeight() int64 { return gr.g.MaxW() }

// Degree returns the degree of node v.
func (gr *Graph) Degree(v int) int { return gr.g.Degree(v) }

// Neighbors calls fn for every half-edge incident to v.
func (gr *Graph) Neighbors(v int, fn func(u int, w int64)) {
	for _, e := range gr.g.Adj[v] {
		fn(int(e.To), e.W)
	}
}

// Unweighted reports whether all edges have weight 1.
func (gr *Graph) Unweighted() bool {
	for v := 0; v < gr.g.N; v++ {
		for _, e := range gr.g.Adj[v] {
			if e.W != 1 {
				return false
			}
		}
	}
	return true
}

// validate checks preconditions common to all entry points.
func (gr *Graph) validate() error {
	if gr == nil || gr.g == nil {
		return fmt.Errorf("ccsp: nil graph")
	}
	if gr.g.N < 1 {
		return fmt.Errorf("ccsp: empty graph")
	}
	if w, limit := gr.g.MaxW(), graph.MaxWeightFor(gr.g.N); w > limit {
		return fmt.Errorf("ccsp: edge weight %d exceeds the %d a %d-node graph supports", w, limit, gr.g.N)
	}
	return nil
}

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges [][3]int64) (*Graph, error) {
	gr := NewGraph(n)
	for _, e := range edges {
		if err := gr.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			return nil, err
		}
	}
	return gr, nil
}
