package ccsp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/graphgen"
)

// section7Shapes are the seeded graphs the §7 pins below run on.
var section7Shapes = []struct {
	name string
	g    *graph.Graph
}{
	{"random", graphgen.Connected(40, 80, graphgen.Weights{Max: 9}, 7)},
	{"path", graphgen.Path(32, graphgen.Weights{Max: 5}, 3)},
	{"cycle", graphgen.Cycle(30, graphgen.Weights{}, 1)},
}

// statsLine renders what a simulated run's Stats must keep: the round
// and message totals and the charged rounds per tag.
func statsLine(s Stats) string {
	return fmt.Sprintf("%s charged=%v", s, s.ChargedRounds)
}

// TestSection7Deterministic: the simulated diameter (§7.2) and exact SSSP
// (Theorem 33) answer the same twice, and their answers and Stats are the
// pinned ones - the estimate, the distances (Dijkstra's) and Bellman-Ford
// iterations, the rounds, messages and charged rounds per tag, and the
// diameter's rounds per phase - so a change to how the theorems
// communicate fails here and not only in the server's golden files. Each
// primitive of the simulated clique is its own run, which starts
// unlabeled, so the diameter's four rounds between and after its MSSPs
// (the pivot broadcast, the N_k(w) flood, the membership broadcast and
// the final max) count under "", not under the first MSSP's label.
func TestSection7Deterministic(t *testing.T) {
	want := map[string]struct {
		estimate          int64
		diamStats, phases string
		iters             int
		ssspStats         string
	}{
		"random": {
			23, "n=40 rounds=3969 (sim=794 charged=3175) msgs=2019733 words=8078932 charged=map[hitting-set:15 route:2116 sort:1044]",
			"map[:1001 mssp/source-detect:2968]",
			4, "n=40 rounds=779 (sim=81 charged=698) msgs=257522 words=1030088 charged=map[route:602 sort:96]",
		},
		"path": {
			84, "n=32 rounds=2787 (sim=623 charged=2164) msgs=1071049 words=4284196 charged=map[hitting-set:13 route:1335 sort:816]",
			"map[:376 mssp/source-detect:2411]",
			4, "n=32 rounds=404 (sim=63 charged=341) msgs=97185 words=388740 charged=map[route:275 sort:66]",
		},
		"cycle": {
			15, "n=30 rounds=2856 (sim=623 charged=2233) msgs=932162 words=3728648 charged=map[hitting-set:13 route:1518 sort:702]",
			"map[:435 mssp/source-detect:2421]",
			4, "n=30 rounds=414 (sim=69 charged=345) msgs=99077 words=396308 charged=map[route:273 sort:72]",
		},
	}
	ctx := context.Background()
	for _, sh := range section7Shapes {
		w := want[sh.name]
		eng, err := NewEngine(ctx, &Graph{g: sh.g}, Options{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		d1, err := eng.Diameter(ctx)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := eng.Diameter(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*DiameterResult{d1, d2} {
			if got := statsLine(d.Stats); d.Estimate != w.estimate || got != w.diamStats {
				t.Errorf("%s: diameter %d with %q, want %d with %q", sh.name, d.Estimate, got, w.estimate, w.diamStats)
			}
			if got := fmt.Sprint(d.Stats.PhaseRounds); got != w.phases {
				t.Errorf("%s: diameter phases %s, want %s", sh.name, got, w.phases)
			}
		}
		src := sh.g.N / 3
		s1, err := eng.SSSP(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := eng.SSSP(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*SSSPResult{s1, s2} {
			if !slices.Equal(s.Dist, sh.g.Dijkstra(src)) {
				t.Errorf("%s: SSSP distances are not Dijkstra's", sh.name)
			}
			if got := statsLine(s.Stats); s.Iterations != w.iters || got != w.ssspStats {
				t.Errorf("%s: SSSP %d iterations with %q, want %d with %q", sh.name, s.Iterations, got, w.iters, w.ssspStats)
			}
		}
	}
}

// TestSection7RoundCap: Options.MaxRounds bounds a simulated diameter or
// SSSP query as a whole - a cap of the query's own TotalRounds lets it
// finish, one round less is ErrRoundLimit - however many runs the query
// is made of.
func TestSection7RoundCap(t *testing.T) {
	ctx := context.Background()
	sh := section7Shapes[2]
	eng, err := NewEngine(ctx, &Graph{g: sh.g}, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ent, err := eng.artifact(ctx, eng.baseKey())
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		name string
		run  func(s *simExec) (Stats, error)
	}{
		{"diameter", func(s *simExec) (Stats, error) {
			_, st, err := s.diameter(ctx, ent)
			return st, err
		}},
		{"sssp", func(s *simExec) (Stats, error) {
			_, _, st, err := s.sssp(ctx, 5)
			return st, err
		}},
	}
	for _, q := range queries {
		full, err := q.run(&simExec{g: sh.g, opts: eng.opts})
		if err != nil {
			t.Fatal(err)
		}
		capped := eng.opts
		capped.MaxRounds = full.TotalRounds
		if _, err := q.run(&simExec{g: sh.g, opts: capped}); err != nil {
			t.Errorf("%s: MaxRounds = its own %d rounds: %v", q.name, full.TotalRounds, err)
		}
		capped.MaxRounds--
		if _, err := q.run(&simExec{g: sh.g, opts: capped}); !errors.Is(err, cc.ErrRoundLimit) {
			t.Errorf("%s: MaxRounds = %d, one below its rounds: got %v, want ErrRoundLimit", q.name, capped.MaxRounds, err)
		}
	}
}
