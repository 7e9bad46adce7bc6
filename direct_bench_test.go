package ccsp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/stretch"
)

// Benchmarks for the direct query path (DESIGN.md §13). Engines are
// preprocessed once per size and shared across benchmark runs, so the
// measured loop is the warm per-query cost: cached G ∪ H and the
// source-restricted detection panel.

var benchEngines sync.Map // n -> *Engine (ExecDirect, eps 0.5)

// benchEngine returns a preprocessed direct-mode engine over a seeded
// connected graph (m ≈ 4n, weights <= 10) at size n, built once per
// process.
func benchEngine(b *testing.B, n int) *Engine {
	b.Helper()
	if e, ok := benchEngines.Load(n); ok {
		return e.(*Engine)
	}
	g := graphgen.Connected(n, 3*n, graphgen.Weights{Max: 10}, int64(n)+17)
	gr := NewGraph(n)
	for v := 0; v < g.N; v++ {
		for _, ed := range g.Adj[v] {
			if int(ed.To) > v {
				if err := gr.AddEdge(v, int(ed.To), ed.W); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	eng, err := NewEngine(context.Background(), gr, Options{Epsilon: 0.5, Execution: ExecDirect})
	if err != nil {
		b.Fatal(err)
	}
	benchEngines.Store(n, eng)
	return eng
}

// BenchmarkDirectQuery measures warm MSSP latency at q sources per query
// (the workload of DESIGN.md §13's tables; run with -benchmem for B/op
// and allocs/op, -cpuprofile to profile the kernels). q = 1 and 8 are
// what the daemon serves; q = 64 and 128 are the size of APSP's
// hitting-set panel, 0.5-1 MB a plane at n = 1024.
func BenchmarkDirectQuery(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, q := range []int{1, 8, 64, 128} {
			b.Run(fmt.Sprintf("n=%d/q=%d", n, q), func(b *testing.B) {
				eng := benchEngine(b, n)
				sources := make([]int, 0, q)
				for i := 0; i < q; i++ {
					sources = append(sources, (i*n/q+1)%n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.MSSP(context.Background(), sources); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuildDirect measures one cold §4 hopset build on the host -
// what NewEngine and every dynamic rebuild pay - on benchEngine's graph
// family (m ≈ 4n, ε = 0.5, default worker pool).
func BenchmarkBuildDirect(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graphgen.Connected(n, 3*n, graphgen.Weights{Max: 10}, int64(n)+17)
			sr, w := g.AugSemiring(), g.WeightMatrix()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hopset.BuildDirect(context.Background(), sr, w, hopset.Practical(0.5), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectKNearest measures a warm k-nearest query: one truncated
// lexicographic Dijkstra per row of the engine's weight matrix, tracking
// each node's first hop beside its key (disttools.KNearestRouted), k = 4,
// 8 and 11 being what the serve-bulk workload asks for. No routed copy of
// the graph is built, and the searches take their scratch and answer slab
// from a recycled search state, so allocs/op stays flat in the matrix
// size (TestQueryAllocsIndependentOfN) and B/op near the answer
// (TestKNearestKernelBytes).
func BenchmarkDirectKNearest(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, k := range []int{4, 8, 11} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				eng := benchEngine(b, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.KNearest(context.Background(), k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDirectAPSP measures a warm (2+ε) weighted APSP (Theorem 28):
// k-nearest, the through-sets fold, one MSSP and the pivot combine, all
// into the n×n table that is the answer (TestAPSPKernelBytes holds B/op
// to that table plus O(n·√n)).
func BenchmarkDirectAPSP(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eng := benchEngine(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.APSP(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectDiameter measures a warm near-3/2 diameter query (§7.2):
// k-nearest, the hitting set and its two β-hop detections, from A and
// from N_k(w). n=1024 is benchEngine's graph, where every detection
// certifies; grid=32x32 (graphgen.Grid at n = 1024, weights 1-10) is the
// fallback row, its hop depth past β, so both detections abort their
// searches and run the panel.
func BenchmarkDirectDiameter(b *testing.B) {
	b.Run("n=1024", func(b *testing.B) { benchDiameter(b, benchEngine(b, 1024)) })
	b.Run("grid=32x32", func(b *testing.B) {
		eng, err := benchGrid()
		if err != nil {
			b.Fatal(err)
		}
		benchDiameter(b, eng)
	})
}

// benchGrid is BenchmarkDirectDiameter's fallback engine, built once per
// process as benchEngine's are.
var benchGrid = sync.OnceValues(func() (*Engine, error) {
	g := graphgen.Grid(32, 32, graphgen.Weights{Max: 10}, 1024+17)
	return NewEngine(context.Background(), &Graph{g: g}, Options{Epsilon: 0.5, Execution: ExecDirect})
})

// benchDiameter is one BenchmarkDirectDiameter row on eng.
func benchDiameter(b *testing.B, eng *Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Diameter(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScale is the direct path's n axis, at n = 1024, 4096 and 8192
// on graphgen.Connected(n, 3n, weights 1-10), where every served cell is
// certified (mssp.RunDirect), plus one fallback row, grid=32x32
// (graphgen.Grid at n = 1024, weights 1-10): its hop depth, 62, passes
// β = 40, so every MSSP there aborts its searches and runs the β-hop
// panel. An op is a cold NewEngine and its base build - the ε = 0.5
// hopset a host engine builds at its first fallback or Save - and build-ns
// and build-MB are their time and bytes.
// With the last engine held it reports live-MB, the heap in use after two
// collections; H/m, the hopset's edges over the graph's; the mean of five
// warm MSSP calls at q = 1 and q = 8 sources (mssp-q1-ns, mssp-q8-ns)
// beside its exact twin, q serial graph.Dijkstra runs (exact-q1-ns,
// exact-q8-ns); and exact-cells, the fraction of the q = 8 answer's
// reachable cells that equal the exact distance (stretch.Report.Exact;
// the answer must be within its (1+ε) bound). Skipped under -short: n =
// 8192 builds take seconds and a few hundred MB each.
func BenchmarkScale(b *testing.B) {
	if testing.Short() {
		b.Skip("builds engines up to n = 8192")
	}
	for _, n := range []int{1024, 4096, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchScale(b, graphgen.Connected(n, 3*n, graphgen.Weights{Max: 10}, int64(n)+17))
		})
	}
	b.Run("grid=32x32", func(b *testing.B) {
		benchScale(b, graphgen.Grid(32, 32, graphgen.Weights{Max: 10}, 1024+17))
	})
}

// benchScale is one BenchmarkScale row on g.
func benchScale(b *testing.B, g *graph.Graph) {
	const reps = 5
	ctx, n := context.Background(), g.N
	gr := &Graph{g: g}
	var eng *Engine
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng = nil // a build does not hold the last one alive
		var err error
		if eng, err = NewEngine(ctx, gr, Options{Epsilon: 0.5, Execution: ExecDirect}); err != nil {
			b.Fatal(err)
		}
		if _, err = eng.artifact(ctx, eng.baseKey()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "build-ns")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1e6, "build-MB")
	b.ReportMetric(float64(liveBytes())/1e6, "live-MB")
	b.ReportMetric(float64(eng.PreprocessStats().Builds[0].Edges)/float64(g.M()), "H/m")
	for _, q := range []int{1, 8} {
		srcs := spreadSources(n, q)
		res, err := eng.MSSP(ctx, srcs)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if res, err = eng.MSSP(ctx, srcs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/reps, fmt.Sprintf("mssp-q%d-ns", q))
		start = time.Now()
		for i := 0; i < reps; i++ {
			for _, s := range res.Sources {
				g.Dijkstra(s)
			}
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/reps, fmt.Sprintf("exact-q%d-ns", q))
		if q == 8 {
			r := stretch.Check(g, res.Sources, res.Dist, stretch.OnePlus(0.5))
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.Exact, "exact-cells")
		}
	}
}

// BenchmarkNewEngine measures a host NewEngine, which readies the engine
// as a rebuild does and builds no hopset (DESIGN.md §16). The rows are
// BenchmarkRebuild's: benchEngine's graph family at n = 1024 and 8192,
// whose detections certify, and grid=32x32, whose detections abort. Beside
// ns/op and B/op it reports live-B, the heap the last engine holds after
// two collections, over what the graph alone held before the first op.
// The grid row also reports fallback-ns, the first MSSP from the corner on
// that engine, timed outside ns/op: its detection aborts and builds the
// base hopset NewEngine left out, so there the build's cost moves to that
// query. n = 8192 is skipped under -short.
func BenchmarkNewEngine(b *testing.B) {
	for _, row := range rebuildRows {
		b.Run(row.name, func(b *testing.B) {
			g := row.g()
			if testing.Short() && g.N > 1024 {
				b.Skip("builds an n = 8192 engine")
			}
			ctx, gr := context.Background(), &Graph{g: g}
			opts := Options{Epsilon: 0.5, Execution: ExecDirect}
			var eng *Engine
			held := liveBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng = nil // an op does not hold the last engine alive
				var err error
				if eng, err = NewEngine(ctx, gr, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(liveBytes())-float64(held), "live-B")
			if row.fallback {
				start := time.Now()
				if _, err := eng.MSSP(ctx, []int{0}); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds()), "fallback-ns")
			}
			runtime.KeepAlive(gr)
		})
	}
}

// BenchmarkFirstAPSP measures a host engine's first APSP: an op is a fresh
// NewEngine and its first APSPWeighted. Beside ns/op and B/op it reports
// live-B, the heap the last engine holds after two collections, over what
// the graph alone held before the first op. On n=1024 (benchEngine's graph
// family) every detection certifies at the ε/2 β of 80 and no hopset is
// built; on cycle=1024 (hop depth 512) the detections abort, and the first
// one builds the ε/2 hopset under the APSP's ctx, so there the build's cost
// moves into the APSP. Read it at -benchtime 5x or more: a one-op row
// cannot tell a lazy first APSP from an eager one. On cycle=1024 (2 cores,
// go1.24) 1x read 93-100 ms for the lazy one against 58-62 ms for an
// eager one, while 5x read 59-66 ms for both. CI's 1x smoke line keeps
// 1x, because it only exercises the path.
func BenchmarkFirstAPSP(b *testing.B) {
	for _, row := range []struct {
		name string
		g    *graph.Graph
	}{
		{"n=1024", graphgen.Connected(1024, 3*1024, graphgen.Weights{Max: 10}, 1024+17)},
		{"cycle=1024", graphgen.Cycle(1024, graphgen.Weights{Max: 10}, 1024+17)},
	} {
		b.Run(row.name, func(b *testing.B) {
			ctx, gr := context.Background(), &Graph{g: row.g}
			opts := Options{Epsilon: 0.5, Execution: ExecDirect}
			var eng *Engine
			held := liveBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng = nil // an op does not hold the last engine alive
				var err error
				if eng, err = NewEngine(ctx, gr, opts); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.APSPWeighted(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(liveBytes())-float64(held), "live-B")
			runtime.KeepAlive(eng)
			runtime.KeepAlive(gr)
		})
	}
}

// rebuildRows are the graphs of BenchmarkRebuild and BenchmarkNewEngine;
// fallback marks the one whose detections abort.
var rebuildRows = []struct {
	name     string
	g        func() *graph.Graph
	fallback bool
}{
	{"n=1024", func() *graph.Graph { return graphgen.Connected(1024, 3*1024, graphgen.Weights{Max: 10}, 1024+17) }, false},
	{"n=8192", func() *graph.Graph { return graphgen.Connected(8192, 3*8192, graphgen.Weights{Max: 10}, 8192+17) }, false},
	{"grid=32x32", func() *graph.Graph { return graphgen.Grid(32, 32, graphgen.Weights{Max: 10}, 1024+17) }, true},
}

// BenchmarkRebuild measures one DynamicEngine generation on the host: a
// 4-edge reweight (each of four nodes spread over the graph to its first
// neighbour, a new weight every op), staged and waited for until its epoch
// serves (DynamicEngine.Update). The rows are benchEngine's graph family
// at n = 1024 and 8192, whose detections certify, and grid=32x32
// (graphgen.Grid at n = 1024, weights 1-10), whose detections abort;
// ns/op and B/op are the update's. The grid row also reports fallback-ns,
// the first MSSP from the corner after each update, timed outside ns/op:
// its detection aborts and, on a rebuilt engine, builds the base hopset
// the rebuild left out (DESIGN.md §16). n = 8192 is skipped under -short.
func BenchmarkRebuild(b *testing.B) {
	for _, row := range rebuildRows {
		b.Run(row.name, func(b *testing.B) {
			g := row.g()
			if testing.Short() && g.N > 1024 {
				b.Skip("builds an n = 8192 engine")
			}
			ctx, n := context.Background(), g.N
			eng, err := NewEngine(ctx, &Graph{g: g}, Options{Epsilon: 0.5, Execution: ExecDirect})
			if err != nil {
				b.Fatal(err)
			}
			dyn := NewDynamicEngine(eng)
			defer dyn.Close()
			var ups []EdgeUpdate
			for _, v := range []int{1, n / 4, n / 2, 3 * n / 4} {
				ups = append(ups, EdgeUpdate{U: v, V: int(g.Adj[v][0].To)})
			}
			var fallback time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ups {
					ups[j].W = int64(1 + (i+j)%10)
				}
				if _, err := dyn.Update(ctx, ups); err != nil {
					b.Fatal(err)
				}
				if row.fallback {
					b.StopTimer()
					start := time.Now()
					if _, err := dyn.Engine().MSSP(ctx, []int{0}); err != nil {
						b.Fatal(err)
					}
					fallback += time.Since(start)
					b.StartTimer()
				}
			}
			if row.fallback {
				b.ReportMetric(float64(fallback.Nanoseconds())/float64(b.N), "fallback-ns")
			}
		})
	}
}
