package bench

import (
	"context"
	"slices"
	"strconv"

	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/diameter"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/sssp"
	"github.com/congestedclique/ccsp/internal/stretch"
)

func init() {
	register(Experiment{ID: "E10", Title: "Theorem 33: exact SSSP vs Bellman-Ford baseline", Run: e10})
	register(Experiment{ID: "E11", Title: "§7.2: diameter approximation", Run: e11})
	register(Experiment{ID: "E12", Title: "§1.1 comparison: this paper vs dense-MM and spanner baselines", Run: e12})
}

// e10 contrasts Theorem 33 against plain Bellman-Ford on the adversarial
// high-SPD family (paths): the baseline needs Θ(SPD) = Θ(n) rounds while
// the shortcut algorithm needs O~(n^{1/6}) plus the k-nearest phase.
func e10(c Config) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Theorem 33 - exact SSSP on paths: shortcut algorithm vs Bellman-Ford (rounds)",
		Columns: []string{"n", "SPD", "algorithm", "rounds", "BF iterations", "exact"},
	}
	for _, n := range sizes(c.Scale, []int{64, 128}, []int{64, 128, 256}) {
		g := graphgen.Path(n, graphgen.Weights{Max: 5}, int64(n)+41)
		want := g.Dijkstra(0)

		w := g.WeightMatrix()
		cl := clique.NewSim(context.Background(), engineCfg(c, n), g.AugSemiring(), w, nil)
		gotS, itS, err := sssp.Exact(cl, w, 0, 0)
		if err != nil {
			return nil, err
		}
		t.Add(n, n-1, "Thm 33 (k=n^{5/6})", cl.Stats.TotalRounds(), itS, slices.Equal(gotS, want))

		gotB, itB, statsB, err := bellmanFordSSSP(c, g, 0)
		if err != nil {
			return nil, err
		}
		t.Add(n, n-1, "Bellman-Ford", statsB.TotalRounds(), itB, slices.Equal(gotB, want))
	}
	t.Note("Paths maximize the shortest-path diameter; the baseline's rounds grow linearly in n while the shortcut algorithm's Bellman-Ford phase stays at ~4n/k+O(1) iterations.")
	return t, nil
}

// e11 measures diameter estimates across families with known diameters.
func e11(c Config) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "§7.2 - diameter: estimate within [lower bound, (1+ε)D]",
		Columns: []string{"n", "family", "true D", "estimate", "Claim 35 lower", "(1+ε)D", "rounds"},
	}
	eps := 0.5
	for _, n := range sizes(c.Scale, []int{36, 64}, []int{36, 64, 100}) {
		families := []struct {
			name string
			g    *graph.Graph
		}{
			{"path", graphgen.Path(n, graphgen.Weights{}, 1)},
			{"cycle", graphgen.Cycle(n, graphgen.Weights{}, 1)},
			{"random", graphgen.Connected(n, 2*n, graphgen.Weights{}, int64(n)+51)},
		}
		for _, fam := range families {
			d, _ := fam.g.Diameter()
			art, stats, err := buildHopsetSim(c, fam.g.AugSemiring(), fam.g.WeightMatrix(), hopset.Practical(eps))
			if err != nil {
				return nil, err
			}
			cl := clique.NewSim(context.Background(), engineCfg(c, fam.g.N), fam.g.AugSemiring(), fam.g.WeightMatrix(), art)
			est, err := diameter.Approx(cl)
			if err != nil {
				return nil, err
			}
			stats.Add(&cl.Stats)
			h, z := d/3, d%3
			lower := 2*h + z
			if z == 2 {
				lower = 2*h + 1
			}
			t.Add(fam.g.N, fam.name, d, est, lower, stretch.OnePlus(eps)(0, 0, d), stats.TotalRounds())
		}
	}
	return t, nil
}

// e12 is the headline comparison of §1.1: our polylog approximations
// against exact dense-MM APSP [13] and spanner-based APSP [52]-style, on a
// common workload - who wins on rounds, at what stretch.
func e12(c Config) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "§1.1 comparison - APSP algorithms: rounds and measured stretch on a common workload",
		Columns: []string{"n", "algorithm", "guarantee", "rounds", "max stretch"},
	}
	eps := 0.5
	for _, n := range sizes(c.Scale, []int{36, 64}, []int{36, 64, 100}) {
		g := graphgen.Connected(n, 3*n, graphgen.Weights{Max: 10}, int64(n)+61)
		sr := g.AugSemiring()

		// Ours: (2+ε, (1+ε)W) weighted APSP (Theorem 28).
		rows, stats, err := runWeightedAPSP(c, g, eps)
		if err != nil {
			return nil, err
		}
		t.Add(n, "Thm 28 (this paper)", "(2+ε,(1+ε)W)", stats.TotalRounds(), t.worst(g, nil, rows, stretch.TwoPlusW(eps, g.MaxW())))

		// Ours: (3+ε) (§6.1).
		rows3, stats3, err := simAPSP(c, g, eps, func(sim *clique.Sim, w *matrix.Mat[semiring.WH]) ([]int64, error) {
			return apsp.ThreePlusEps(sim, w)
		})
		if err != nil {
			return nil, err
		}
		t.Add(n, "§6.1 (this paper)", "(3+ε)", stats3.TotalRounds(), t.worst(g, nil, rows3, stretch.ThreePlus(eps)))

		// Baseline: exact APSP by iterated dense squaring [13].
		rowsD, statsD, err := runRows(c, g, func(nd *cc.Node) ([]int64, error) { return denseAPSP(nd, sr, g.WeightRow(nd.ID)) })
		if err != nil {
			return nil, err
		}
		t.Add(n, "dense MM [13]", "exact", statsD.TotalRounds(), t.worst(g, nil, rowsD, stretch.Exact()))

		// Baseline: spanner APSP for k = 2, 3.
		for _, k := range []int{2, 3} {
			rowsS, statsS, err := runRows(c, g, func(nd *cc.Node) ([]int64, error) {
				res, err := spannerAPSP(nd, g.WeightRow(nd.ID), k, 7)
				if err != nil {
					return nil, err
				}
				return res.Dist, nil
			})
			if err != nil {
				return nil, err
			}
			t.Add(n, "spanner k="+strconv.Itoa(k), "("+strconv.Itoa(2*k-1)+")", statsS.TotalRounds(), t.worst(g, nil, rowsS, stretch.Factor(float64(2*k-1))))
		}
	}
	t.Note("Expected shape (§1.1): the dense-MM baseline is exact but grows as n^{1/3}·log n; spanners are cheap but pay stretch 2k-1; the paper's algorithms hold (2+ε)-class stretch at polylog rounds.")
	return t, nil
}
