// Package sssp implements exact single-source shortest paths (§7.1,
// Theorem 33): the k-nearest tool builds the k-shortcut graph of [22,48],
// whose shortest-path diameter is below 4n/k (Lemma 32), and a distributed
// Bellman-Ford finishes in O(n/k) rounds. With k = n^{5/6} both phases cost
// O~(n^{1/6}) rounds. The plain Bellman-Ford here is also the paper's
// baseline (SPD rounds on G). Both are written once, over internal/clique,
// for the simulated and the direct backend alike.
package sssp

import (
	"fmt"
	"math"
	"slices"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// BellmanFord runs the classic distributed Bellman-Ford from src on the
// undirected graph whose row v, node v's incident edges, is rows[v]. Each
// iteration broadcasts every node's tentative distance (one round) and
// relaxes every node's edges against the broadcast vector. It stops after
// two consecutive identical distance vectors or maxIters iterations,
// whichever is first - a capped run broadcasts once more - and returns the
// final global distance vector with the number of broadcasts.
func BellmanFord(c clique.Clique, rows []matrix.Row[semiring.WH], src, maxIters int) ([]int64, int, error) {
	my := make([]int64, c.N())
	for v := range my {
		my[v] = semiring.Inf
	}
	my[src] = 0
	var prev []int64
	for it := 1; ; it++ {
		vals, err := c.Broadcast(my)
		if err != nil {
			return nil, 0, fmt.Errorf("sssp: Bellman-Ford: %w", err)
		}
		if it > maxIters || prev != nil && slices.Equal(vals, prev) {
			return vals, it, nil
		}
		// Relax against a copy: vals may be my itself. A diagonal entry (0
		// weight) never improves my[v] <= prev[v].
		prev = append(prev[:0], vals...)
		for v, row := range rows {
			for _, e := range row {
				if d := prev[e.Col]; d < semiring.Inf && d+e.Val.W < my[v] {
					my[v] = d + e.Val.W
				}
			}
		}
	}
}

// Exact computes exact single-source shortest paths from src on c's graph,
// whose augmented weight matrix is w (Theorem 33): k-nearest distances
// become shortcut edges, then Bellman-Ford runs for O(n/k) iterations on
// the shortcut graph. k = 0 selects the paper's n^{5/6}. It returns the
// global distance vector and the Bellman-Ford iteration count.
func Exact(c clique.Clique, w *matrix.Mat[semiring.WH], src, k int) ([]int64, int, error) {
	n := c.N()
	if k <= 0 {
		k = int(math.Ceil(math.Pow(float64(n), 5.0/6.0)))
	}
	k = min(k, n)
	c.Phase("sssp/k-nearest")
	knear, release, err := c.KNearest(k)
	if err != nil {
		return nil, 0, fmt.Errorf("sssp: k-nearest: %w", err)
	}
	defer release() // the shortcut rows copy what they need

	// Row v of G' is row v of G, v's k-nearest entries (Bellman-Ford reads
	// only weights) and the shortcuts {u, v} routed to v from every u.
	out := make([][]cc.Packet, n)
	for v, row := range knear.Rows {
		out[v] = make([]cc.Packet, 0, len(row))
		for _, e := range row {
			if int(e.Col) != v {
				out[v] = append(out[v], cc.Packet{Dst: e.Col, M: cc.Msg{A: e.Val.W}})
			}
		}
	}
	c.Phase("sssp/shortcuts")
	in, err := c.Route(out)
	if err != nil {
		return nil, 0, fmt.Errorf("sssp: shortcuts: %w", err)
	}
	rows := make([]matrix.Row[semiring.WH], n)
	for v := range rows {
		rows[v] = make(matrix.Row[semiring.WH], 0, len(w.Rows[v])+len(knear.Rows[v])+len(in[v]))
		rows[v] = append(append(rows[v], w.Rows[v]...), knear.Rows[v]...)
		for _, m := range in[v] {
			rows[v] = append(rows[v], matrix.Entry[semiring.WH]{Col: m.Src, Val: semiring.WH{W: m.A, H: 1}})
		}
	}

	// Lemma 32: SPD(G') < 4n/k, so 4·ceil(n/k)+1 iterations always reach a
	// fixpoint; convergence detection usually stops earlier.
	c.Phase("sssp/bellman-ford")
	return BellmanFord(c, rows, src, 4*((n+k-1)/k)+2)
}
