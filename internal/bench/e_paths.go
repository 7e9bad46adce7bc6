package bench

import (
	"context"
	"math"
	"slices"

	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/stretch"
)

func init() {
	register(Experiment{ID: "E7", Title: "Theorem 3: multi-source shortest paths", Run: e7})
	register(Experiment{ID: "E8", Title: "Theorem 28: weighted APSP (2+ε, (1+ε)W)", Run: e8})
	register(Experiment{ID: "E9", Title: "Theorem 31: unweighted APSP (2+ε)", Run: e9})
}

// e7 sweeps the source-set size and reports measured stretch (always
// checked <= 1+ε) and rounds against (|S|^{2/3}/n^{1/3}+log n)·log n/ε.
func e7(c Config) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Theorem 3 - MSSP: stretch vs 1+ε, rounds vs (|S|^{2/3}/n^{1/3}+log n)·log n/ε",
		Columns: []string{"n", "|S|", "ε", "hop budget", "max stretch", "1+ε", "rounds", "formula", "rounds/formula"},
	}
	eps := 0.5
	// The pinned configuration fixes the hopset's levels and hop factor so
	// the hop budget d = min(4β, n) stops tracking n; it isolates the
	// polylog shape of the theorem from the small-n saturation of the
	// exploration budget (see EXPERIMENTS.md).
	pinned := hopset.Params{Eps: eps, Levels: 4, BetaFactor: 1}
	for _, n := range sizes(c.Scale, []int{49, 81}, []int{49, 81, 144}) {
		g := graphgen.Connected(n, 2*n, graphgen.Weights{Max: 15}, int64(n)+11)
		sqn := intPow(n, 0.5)
		for _, cfg := range []struct {
			label string
			p     hopset.Params
		}{{"adaptive", hopset.Practical(eps)}, {"pinned", pinned}} {
			for _, nS := range []int{sqn, 2 * sqn} {
				srcs := make([]int, nS)
				for i := range srcs {
					srcs[i] = (i * n) / nS
				}
				dists, stats, err := runMSSPBench(c, g, srcs, cfg.p)
				if err != nil {
					return nil, err
				}
				logn := math.Log2(float64(n))
				formula := (math.Pow(float64(nS), 2.0/3)/math.Cbrt(float64(n)) + logn) * logn / eps
				t.Add(n, nS, eps, cfg.label, t.worst(g, srcs, dists, stretch.OnePlus(eps)), 1+eps, stats.TotalRounds(), formula,
					float64(stats.TotalRounds())/formula)
			}
		}
	}
	t.Note("Stretch is measured exhaustively over all (node, source) pairs and never exceeds 1+ε in either configuration.")
	return t, nil
}

// runMSSPBench runs the collective MSSP for srcs (ascending); row v of
// the result is node v's estimate of its distance to each source.
func runMSSPBench(c Config, g *graph.Graph, srcs []int, p hopset.Params) ([][]int64, cc.Stats, error) {
	inS := make([]bool, g.N)
	for _, s := range srcs {
		inS[s] = true
	}
	sr, board := g.AugSemiring(), hitting.NewBoard(g.N)
	return runRows(c, g, func(nd *cc.Node) ([]int64, error) {
		res, err := mssp.Run(nd, sr, g.WeightRow(nd.ID), inS, board, p)
		if err != nil {
			return nil, err
		}
		row := make([]int64, len(srcs))
		for i := range row {
			row[i] = semiring.Inf
		}
		for _, e := range res.Dist {
			i, _ := slices.BinarySearch(srcs, int(e.Col))
			row[i] = e.Val.W
		}
		return row, nil
	})
}

// runRows runs a collective that leaves one row at every node of g, and
// collects the rows.
func runRows(c Config, g *graph.Graph, row func(nd *cc.Node) ([]int64, error)) ([][]int64, cc.Stats, error) {
	rows := make([][]int64, g.N)
	stats, err := cc.Run(context.Background(), engineCfg(c, g.N), func(nd *cc.Node) (err error) {
		rows[nd.ID], err = row(nd)
		return err
	})
	return rows, stats, err
}

// worst is the largest estimate/distance ratio stretch.Check measures
// against b; a pair that breaks b fails the experiment.
func (t *Table) worst(g *graph.Graph, srcs []int, est [][]int64, b stretch.Bound) float64 {
	r := stretch.Check(g, srcs, est, b)
	if t.err == nil {
		t.err = r.Err()
	}
	return r.Worst
}

// e8 measures the weighted APSP on several graph families.
func e8(c Config) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Theorem 28 - weighted APSP: stretch vs 2+ε (+additive (1+ε)W/d), rounds vs log²n/ε",
		Columns: []string{"n", "family", "ε", "max stretch", "bound incl. W-term", "rounds", "log²n/ε"},
	}
	eps := 0.5
	for _, n := range sizes(c.Scale, []int{36, 64}, []int{36, 64, 100}) {
		families := []struct {
			name string
			g    *graph.Graph
		}{
			{"random", graphgen.Connected(n, 2*n, graphgen.Weights{Max: 10}, int64(n)+21)},
			{"grid", graphgen.Grid(intPow(n, 0.5), n/intPow(n, 0.5), graphgen.Weights{Max: 10}, int64(n)+22)},
			{"power-law", graphgen.PreferentialAttachment(n, 2, graphgen.Weights{Max: 10}, int64(n)+23)},
		}
		for _, fam := range families {
			rows, stats, err := runWeightedAPSP(c, fam.g, eps)
			if err != nil {
				return nil, err
			}
			logn := math.Log2(float64(fam.g.N))
			// The additive (1+ε)W term can push pair stretch up to
			// (2+ε) + (1+ε)·W/d; report the worst-case admissible bound
			// for the family's heaviest edge at distance >= 1.
			b := stretch.TwoPlusW(eps, fam.g.MaxW())
			t.Add(fam.g.N, fam.name, eps, t.worst(fam.g, nil, rows, b),
				b(0, 0, 1), stats.TotalRounds(), logn*logn/eps)
		}
	}
	t.Note("The per-pair guarantee δ <= (2+ε)d + (1+ε)W is verified exactly in the test suite (internal/apsp); the table reports the worst measured ratio.")
	return t, nil
}

func runWeightedAPSP(c Config, g *graph.Graph, eps float64) ([][]int64, cc.Stats, error) {
	return simAPSP(c, g, eps, func(sim *clique.Sim, w *matrix.Mat[semiring.WH]) ([]int64, error) {
		return apsp.TwoPlusEpsWeighted(sim, w)
	})
}

// simAPSP runs a §6 APSP from scratch on the simulator, as the paper
// states it: the hopset of apsp.HopsetParams on G, then query over the
// clique on G with it; the rows and the Stats of every run.
func simAPSP(c Config, g *graph.Graph, eps float64, query func(*clique.Sim, *matrix.Mat[semiring.WH]) ([]int64, error)) ([][]int64, cc.Stats, error) {
	sr, w := g.AugSemiring(), g.WeightMatrix()
	art, stats, err := buildHopsetSim(c, sr, w, apsp.HopsetParams(hopset.Practical(eps), eps))
	if err != nil {
		return nil, stats, err
	}
	sim := clique.NewSim(context.Background(), engineCfg(c, g.N), sr, w, art)
	table, err := query(sim, w)
	stats.Add(&sim.Stats)
	if err != nil {
		return nil, stats, err
	}
	rows := make([][]int64, g.N)
	for v := range rows {
		rows[v] = table[v*g.N : (v+1)*g.N]
	}
	return rows, stats, nil
}

// e9 measures the unweighted APSP across degree regimes.
func e9(c Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Theorem 31 - unweighted APSP: stretch vs 2+ε, rounds vs log²n/ε",
		Columns: []string{"n", "family", "ε", "max stretch", "2+ε", "rounds", "log²n/ε"},
	}
	eps := 0.5
	for _, n := range sizes(c.Scale, []int{36, 64}, []int{36, 64, 100}) {
		spine := n / 4
		families := []struct {
			name string
			g    *graph.Graph
		}{
			{"sparse", graphgen.Connected(n, n/2, graphgen.Weights{}, int64(n)+31)},
			{"dense", graphgen.GNP(n, 0.3, graphgen.Weights{}, int64(n)+32)},
			{"caterpillar", graphgen.Caterpillar(spine, 3, graphgen.Weights{}, int64(n)+33)},
		}
		for _, fam := range families {
			rows, stats, err := runUnweightedAPSP(c, fam.g, eps)
			if err != nil {
				return nil, err
			}
			logn := math.Log2(float64(fam.g.N))
			t.Add(fam.g.N, fam.name, eps, t.worst(fam.g, nil, rows, stretch.TwoPlus(eps)), 2+eps,
				stats.TotalRounds(), logn*logn/eps)
		}
	}
	t.Note("Max stretch is exhaustive over all connected pairs; the caterpillar family mixes the high-degree and low-degree phases of §6.3.")
	return t, nil
}

// runUnweightedAPSP preprocesses G' on the clique on G before the query:
// the degree broadcast that defines it and its hopset.
func runUnweightedAPSP(c Config, g *graph.Graph, eps float64) ([][]int64, cc.Stats, error) {
	return simAPSP(c, g, eps, func(sim *clique.Sim, w *matrix.Mat[semiring.WH]) ([]int64, error) {
		degs := make([]int64, g.N)
		for v, row := range w.Rows {
			degs[v] = int64(len(row)) // the row includes the diagonal: |N(v)|
		}
		degs, err := sim.Broadcast(degs)
		if err != nil {
			return nil, err
		}
		low := apsp.LowDegree(w, degs)
		art, stats, err := buildHopsetSim(c, g.AugSemiring(), low, apsp.HopsetParams(hopset.Practical(eps), eps))
		sim.Stats.Add(&stats)
		if err != nil {
			return nil, err
		}
		return apsp.TwoPlusEpsUnweighted(sim, w, sim.On(low, art))
	})
}
