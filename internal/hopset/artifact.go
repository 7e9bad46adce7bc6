package hopset

import (
	"fmt"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Artifact is the host-side aggregation of one collective Build: every
// node's hopset row plus the shared hitting-set membership, pivots and
// hop bound. It is the reusable product of the preprocess-once /
// query-many pipeline (§4 builds once, Theorems 3/28/31 query many
// times): a later simulator run rehydrates per-node Results via At and
// pays zero construction rounds. An Artifact is immutable after Collect
// and safe to share between concurrent query runs.
type Artifact struct {
	// N is the clique size the artifact was built for.
	N int
	// Beta is the hop bound β of the (β, ε)-hopset guarantee.
	Beta int
	// K is the neighborhood size used for bunches.
	K int
	// InA1 marks the hitting-set nodes (shared read-only).
	InA1 []bool
	// Rows[v] is node v's hopset row (symmetric across endpoints).
	Rows []matrix.Row[semiring.WH]
	// PV[v] is p(v), the A_1 node closest to v (§4.1; -1 only for a
	// node with no k-nearest set, an all-zero row of the weight matrix:
	// a graph's rows hold their node, so an isolated node is its own
	// pivot), and DPV[v] its exact distance.
	PV  []int32
	DPV []semiring.WH
}

// Collect assembles an Artifact from the per-node Results of one
// collective Build, indexed by node ID. The Results' shared fields
// (Beta, K, InA1) must agree, which Build guarantees when all nodes pass
// identical params.
func Collect(results []*Result) (*Artifact, error) {
	n := len(results)
	if n == 0 {
		return nil, fmt.Errorf("hopset: no results to collect")
	}
	a := &Artifact{
		N:    n,
		Rows: make([]matrix.Row[semiring.WH], n),
		PV:   make([]int32, n),
		DPV:  make([]semiring.WH, n),
	}
	for v, r := range results {
		if r == nil {
			return nil, fmt.Errorf("hopset: missing result for node %d", v)
		}
		if v == 0 {
			a.Beta, a.K, a.InA1 = r.Beta, r.K, r.InA1
		} else if r.Beta != a.Beta || r.K != a.K {
			return nil, fmt.Errorf("hopset: inconsistent results: node %d has (β=%d, k=%d), node 0 has (β=%d, k=%d)",
				v, r.Beta, r.K, a.Beta, a.K)
		}
		a.Rows[v] = r.Row
		a.PV[v] = r.PV
		a.DPV[v] = r.DPV
	}
	return a, nil
}

// At rehydrates node id's share of the hopset. The returned Result
// aliases the artifact's read-only data; callers must not mutate it.
func (a *Artifact) At(id int) *Result {
	return &Result{Row: a.Rows[id], Beta: a.Beta, InA1: a.InA1, K: a.K, PV: a.PV[id], DPV: a.DPV[id]}
}

// Edges returns the number of undirected hopset edges (each edge appears
// in the rows of both endpoints).
func (a *Artifact) Edges() int {
	total := 0
	for _, r := range a.Rows {
		total += len(r)
	}
	return total / 2
}
