package ccsp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/api"
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
// primitive of the simulated clique is its own run, which starts under the
// last label the algorithm set, and the diameter labels every step
// "diameter/...": its four rounds between and after its MSSPs (the pivot
// broadcast, the N_k(w) flood, the membership broadcast and the final max)
// and its k-nearest and hitting-set rounds used to count under "" (1001 of
// them on the random shape). No round counts under "" (unlabeled).
func TestSection7Deterministic(t *testing.T) {
	want := map[string]struct {
		estimate          int64
		diamStats, phases string
		iters             int
		ssspStats         string
	}{
		"random": {
			23, "n=40 rounds=3969 (sim=794 charged=3175) msgs=2019733 words=8078932 charged=map[hitting-set:15 route:2116 sort:1044]",
			"map[diameter/far-neighborhood:2 diameter/hitting-set:15 diameter/k-nearest:982 diameter/max:1 diameter/pivots:1 mssp/source-detect:2968]",
			4, "n=40 rounds=779 (sim=81 charged=698) msgs=257522 words=1030088 charged=map[route:602 sort:96]",
		},
		"path": {
			84, "n=32 rounds=2787 (sim=623 charged=2164) msgs=1071049 words=4284196 charged=map[hitting-set:13 route:1335 sort:816]",
			"map[diameter/far-neighborhood:2 diameter/hitting-set:13 diameter/k-nearest:359 diameter/max:1 diameter/pivots:1 mssp/source-detect:2411]",
			4, "n=32 rounds=404 (sim=63 charged=341) msgs=97185 words=388740 charged=map[route:275 sort:66]",
		},
		"cycle": {
			15, "n=30 rounds=2856 (sim=623 charged=2233) msgs=932162 words=3728648 charged=map[hitting-set:13 route:1518 sort:702]",
			"map[diameter/far-neighborhood:2 diameter/hitting-set:13 diameter/k-nearest:418 diameter/max:1 diameter/pivots:1 mssp/source-detect:2421]",
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
			checkLabeled(t, sh.name+": diameter", d.Stats)
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
			checkLabeled(t, sh.name+": SSSP", s.Stats)
		}
	}
}

// TestSection7RoundCap: Options.MaxRounds bounds a simulated diameter,
// SSSP or §6 APSP query as a whole - a cap of the query's own TotalRounds
// lets it finish, one round less is ErrRoundLimit - however many runs the
// query is made of, and on however many cliques: the unweighted APSP's
// last run is on G', under the budget its runs on G left.
func TestSection7RoundCap(t *testing.T) {
	ctx := context.Background()
	sh := section7Shapes[2]
	eng, err := NewEngine(ctx, &Graph{g: sh.g}, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []artifactKey{eng.baseKey(), eng.apspKey(), eng.apspLowKey()} {
		if _, err := eng.artifact(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	// under is an engine on eng's artifacts under opts, so that its
	// queries build nothing and run under opts' cap.
	under := func(opts Options) *Engine {
		e := adoptEngine(sh.g, opts)
		e.pre = eng.pre
		return e
	}
	queries := map[string]func(e *Engine) (Stats, error){
		"diameter": func(e *Engine) (Stats, error) {
			res, err := e.Diameter(ctx)
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		},
		"sssp": func(e *Engine) (Stats, error) {
			res, err := e.SSSP(ctx, 5)
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		},
	}
	for _, v := range []api.APSPVariant{api.APSPWeighted, api.APSPWeighted3, api.APSPUnweighted} {
		queries["apsp/"+string(v)] = func(e *Engine) (Stats, error) {
			res, err := e.apspByVariant(ctx, v)
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		}
	}
	for name, run := range queries {
		full, err := run(under(eng.opts))
		if err != nil {
			t.Fatal(err)
		}
		capped := eng.opts
		capped.MaxRounds = full.TotalRounds
		if _, err := run(under(capped)); err != nil {
			t.Errorf("%s: MaxRounds = its own %d rounds: %v", name, full.TotalRounds, err)
		}
		capped.MaxRounds--
		if _, err := run(under(capped)); !errors.Is(err, cc.ErrRoundLimit) {
			t.Errorf("%s: MaxRounds = %d, one below its rounds: got %v, want ErrRoundLimit", name, capped.MaxRounds, err)
		}
	}
}

// checkLabeled fails a simulated result whose rounds count in part under
// no phase label: every round of a §6 or §7 query is attributed.
func checkLabeled(t *testing.T, name string, s Stats) {
	t.Helper()
	if r, ok := s.PhaseRounds[""]; ok {
		t.Errorf("%s: %d rounds count under no phase label (%v)", name, r, s.PhaseRounds)
	}
}

// tableSum is an FNV-1a checksum of an estimate table, row by row.
func tableSum(rows [][]int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rows {
		for _, d := range r {
			binary.LittleEndian.PutUint64(b[:], uint64(d))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestSection6Deterministic: the three simulated §6 APSP variants - the
// (2+ε, (1+ε)W) of Theorem 28 and the (3+ε) of §6.1 on every §7 shape,
// the (2+ε) of Theorem 31 on the unit-weight one - answer the same twice,
// and their tables and Stats are the pinned ones: a checksum of the
// table, the rounds, messages and charged rounds per tag, and the rounds
// per phase. Each primitive of the simulated clique is its own run, which
// starts under the last label the algorithm set, not under the label the
// run before it ended in. The two weighted variants are one body that
// labels each step "apsp/..." (the (3+ε) one used to label none: its 2
// pivot-broadcast rounds counted under "mssp/source-detect", the rest
// before its MSSP under ""). The unweighted one labels its steps too, its
// second phase's on G' "apsp/low-degree/..." (it used to label none, and
// 334 of its 2128 rounds on the cycle counted under ""). No round counts
// under "" (unlabeled).
func TestSection6Deterministic(t *testing.T) {
	want := map[string]struct {
		sum           uint64
		stats, phases string
	}{
		"random/weighted": {0xb986ee256e079ee5, "n=40 rounds=2424 (sim=557 charged=1867) msgs=1117008 words=4468032 charged=map[hitting-set:15 route:1108 sort:744]",
			"map[apsp/dist-through-sets:34 apsp/hitting-set:15 apsp/k-nearest:383 apsp/pivot-combine:3 mssp/source-detect:1989]"},
		"random/weighted3": {0xcc4dd310c17c8255, "n=40 rounds=2389 (sim=545 charged=1844) msgs=1094476 words=4377904 charged=map[hitting-set:15 route:1094 sort:735]",
			"map[apsp/hitting-set:15 apsp/k-nearest:383 apsp/pivot-combine:2 mssp/source-detect:1989]"},
		"path/weighted": {0x78fb678e9718f025, "n=32 rounds=1889 (sim=447 charged=1442) msgs=645452 words=2581808 charged=map[hitting-set:13 route:835 sort:594]",
			"map[apsp/dist-through-sets:33 apsp/hitting-set:13 apsp/k-nearest:259 apsp/pivot-combine:3 mssp/source-detect:1581]"},
		"path/weighted3": {0x810eaf446be0d0ef, "n=32 rounds=1855 (sim=435 charged=1420) msgs=631984 words=2527936 charged=map[hitting-set:13 route:822 sort:585]",
			"map[apsp/hitting-set:13 apsp/k-nearest:259 apsp/pivot-combine:2 mssp/source-detect:1581]"},
		"cycle/weighted": {0xa7b9684167ac0b05, "n=30 rounds=1815 (sim=418 charged=1397) msgs=492305 words=1969220 charged=map[hitting-set:13 route:829 sort:555]",
			"map[apsp/dist-through-sets:33 apsp/hitting-set:13 apsp/k-nearest:239 apsp/pivot-combine:3 mssp/source-detect:1527]"},
		"cycle/weighted3": {0xdd8e61d28f6dab19, "n=30 rounds=1781 (sim=406 charged=1375) msgs=480121 words=1920484 charged=map[hitting-set:13 route:816 sort:546]",
			"map[apsp/hitting-set:13 apsp/k-nearest:239 apsp/pivot-combine:2 mssp/source-detect:1527]"},
		"cycle/unweighted": {0x2f69862e24342285, "n=30 rounds=2128 (sim=440 charged=1688) msgs=611355 words=2445420 charged=map[hitting-set:26 route:1095 sort:567]",
			"map[apsp/dist-through-sets:10 apsp/hitting-set:13 apsp/low-degree/dist-through-sets:31 apsp/low-degree/hitting-set:13 apsp/low-degree/k-nearest:202 apsp/low-degree/pivot-combine:3 apsp/low-degree/triple-product:62 mssp/source-detect:1794]"},
	}
	ctx := context.Background()
	for _, sh := range section7Shapes {
		eng, err := NewEngine(ctx, &Graph{g: sh.g}, Options{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		variants := []api.APSPVariant{api.APSPWeighted, api.APSPWeighted3}
		if sh.g.MaxW() == 1 {
			variants = append(variants, api.APSPUnweighted)
		}
		for _, v := range variants {
			name := sh.name + "/" + string(v)
			w := want[name]
			for range 2 {
				res, err := eng.apspByVariant(ctx, v)
				if err != nil {
					t.Fatal(err)
				}
				if sum, got := tableSum(res.Dist), statsLine(res.Stats); sum != w.sum || got != w.stats {
					t.Errorf("%s: table %#x with %q, want %#x with %q", name, sum, got, w.sum, w.stats)
				}
				if got := fmt.Sprint(res.Stats.PhaseRounds); got != w.phases {
					t.Errorf("%s: phases %s, want %s", name, got, w.phases)
				}
				checkLabeled(t, name, res.Stats)
			}
		}
	}
}
