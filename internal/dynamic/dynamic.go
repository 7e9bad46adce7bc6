// Package dynamic implements the mutation side of the dynamic-graph
// subsystem (DESIGN.md §16): edge updates, the pure graph-patching
// function that applies them, and a Coordinator that stages updates
// into generations and runs one background rebuild at a time,
// coalescing updates that arrive mid-build into the next generation.
//
// The package is deliberately engine-agnostic: the Coordinator drives
// an opaque BuildFunc, so it can be unit- and race-tested with a stub
// build (no preprocessing in the loop) while ccsp.DynamicEngine plugs
// in the real direct-mode rebuild.
package dynamic

import (
	"fmt"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/graph"
)

// Update is one edge mutation, the wire's api.EdgeUpdate: W >= 0 sets
// the weight of the undirected edge {U, V} (inserting it if absent,
// collapsing any parallel edges); W < 0 deletes the edge (a no-op if
// absent).
type Update = api.EdgeUpdate

// Validate checks every update against an n-node graph: endpoints in
// range, no self-loops, and no weight past graph.MaxWeightFor(n) - updates
// arrive from the wire, and a heavier edge would panic the rebuild. Any
// W < 0 is a delete.
func Validate(n int, ups []Update) error {
	if len(ups) == 0 {
		return fmt.Errorf("dynamic: empty update batch")
	}
	for i, u := range ups {
		if u.U == u.V {
			return fmt.Errorf("dynamic: update %d: self-loop at %d", i, u.U)
		}
		if u.U < 0 || u.V < 0 || u.U >= n || u.V >= n {
			return fmt.Errorf("dynamic: update %d: edge (%d,%d) out of range [0,%d)", i, u.U, u.V, n)
		}
		if limit := graph.MaxWeightFor(n); u.W > limit { // n >= 1: the range check passed
			return fmt.Errorf("dynamic: update %d: weight %d exceeds the %d an %d-node graph supports", i, u.W, limit, n)
		}
	}
	return nil
}

// Apply returns a new graph: g with ups applied in order. g itself is
// never modified. Each update first removes every stored parallel edge
// {U, V} and then, for W >= 0, inserts the single edge with weight W -
// so a reweight replaces rather than stacks, and applying the same
// batch twice is idempotent.
func Apply(g *graph.Graph, ups []Update) (*graph.Graph, error) {
	if err := Validate(g.N, ups); err != nil {
		return nil, err
	}
	out := g.Clone()
	for _, u := range ups {
		removeEdge(out, u.U, u.V)
		if u.W >= 0 {
			if err := out.AddEdge(u.U, u.V, u.W); err != nil {
				return nil, fmt.Errorf("dynamic: %w", err)
			}
		}
	}
	return out, nil
}

// removeEdge deletes every half-edge between u and v (parallel edges
// included), preserving the relative order of the survivors so that
// update application stays deterministic.
func removeEdge(g *graph.Graph, u, v int) {
	g.Adj[u] = dropTo(g.Adj[u], int32(v))
	g.Adj[v] = dropTo(g.Adj[v], int32(u))
}

func dropTo(adj []graph.Edge, to int32) []graph.Edge {
	out := adj[:0]
	for _, e := range adj {
		if e.To != to {
			out = append(out, e)
		}
	}
	return out
}
