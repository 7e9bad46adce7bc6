package ccsp

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hopset"
)

// Benchmarks for the direct query path (DESIGN.md §13). Engines are
// preprocessed once per size and shared across benchmark runs, so the
// measured loop is the warm per-query cost: cached G ∪ H, the
// source-restricted detection panel, and the specialized WH kernel.

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
// lexicographic Dijkstra per row of the routed weight matrix, k = 4, 8
// and 11 being what the serve-bulk workload asks for. The routed matrix
// is built once per engine, not per query, and the searches take their
// scratch and answer slab from a recycled search state, so allocs/op
// stays flat in the matrix size (TestQueryAllocsIndependentOfN) and B/op
// near the answer (TestKNearestKernelBytes).
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
