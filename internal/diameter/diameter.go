// Package diameter implements the near-3/2 diameter approximation of §7.2
// (Claims 34-35): the Roditty-Vassilevska Williams scheme [54] built from
// the paper's distance tools - k-nearest sets, a hitting set S, a
// (1+ε)-MSSP from S, and a second (1+ε)-MSSP from N_k(w) for the node w
// farthest from its pivot. For unweighted diameter D = 3h+z the estimate D'
// satisfies 2h+z <= D' <= (1+ε)D (z ∈ {0,1}; 2h+1 for z = 2); weighted
// graphs lose an additive max-edge-weight term. It is written once, over
// internal/clique, for the simulated and the direct backend alike.
package diameter

import (
	"fmt"
	"math"
	"slices"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Approx returns the diameter estimate on c's graph, both MSSP stages
// running over c's hopset (built at the target ε).
func Approx(c clique.Clique) (int64, error) {
	// Line (1): distances to the k nearest, k = O~(√n) so that the
	// hitting set has size O~(√n).
	n := c.N()
	k := min(n, int(math.Ceil(math.Sqrt(float64(n))*math.Log2(float64(n)+1))))
	c.Phase("diameter/k-nearest")
	knear, release, err := c.KNearest(k)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	defer release()
	// Line (2): hitting set S.
	c.Phase("diameter/hitting-set")
	inS, err := c.Hit(knear.Rows)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	// Line (3): MSSP from S.
	dS, err := c.MSSP(inS)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	defer disttools.ReleasePlane(dS)
	// Line (4): pivots p(v) ∈ S ∩ N_k(v), exact d(v, p(v)), 0 for nodes
	// with no pivot; all nodes learn all pivot distances.
	pivD := make([]int64, n)
	for v, row := range knear.Rows {
		dpv := semiring.InfWH
		for _, e := range row {
			if inS[e.Col] && semiring.LessWH(e.Val, dpv) {
				dpv = e.Val
			}
		}
		if dpv.W < semiring.Inf {
			pivD[v] = dpv.W
		}
	}
	c.Phase("diameter/pivots")
	dpvs, err := c.Broadcast(pivD)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	// Line (5): w maximizes d(v, p(v)); ties to the smallest ID. w floods
	// N_k(w) membership (one message per member, then a membership
	// broadcast).
	w := 0
	for v := 1; v < n; v++ {
		if dpvs[v] > dpvs[w] {
			w = v
		}
	}
	c.Phase("diameter/far-neighborhood")
	flood := make([][]cc.Packet, n)
	for _, e := range knear.Rows[w] {
		flood[w] = append(flood[w], cc.Packet{Dst: e.Col})
	}
	got, err := c.Exchange(flood)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	member := make([]int64, n)
	for v := range member {
		if len(got[v]) > 0 || v == w {
			member[v] = 1
		}
	}
	members, err := c.Broadcast(member)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	inNkw := make([]bool, n)
	for v := range inNkw {
		inNkw[v] = members[v] == 1
	}
	dNkw, err := c.MSSP(inNkw)
	if err != nil {
		return 0, fmt.Errorf("diameter: second MSSP: %w", err)
	}
	defer disttools.ReleasePlane(dNkw)
	// Line (6): the estimate is the maximum distance seen in either MSSP.
	local := make([]int64, n)
	for _, plane := range [][]int64{dS, dNkw} {
		for i, d := range plane {
			if v := i / (len(plane) / n); d < semiring.Inf && d > local[v] {
				local[v] = d
			}
		}
	}
	c.Phase("diameter/max")
	maxes, err := c.Broadcast(local)
	if err != nil {
		return 0, fmt.Errorf("diameter: %w", err)
	}
	return slices.Max(maxes), nil
}
