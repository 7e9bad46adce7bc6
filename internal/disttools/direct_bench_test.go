package disttools

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// BenchmarkKNearestAll measures the k-nearest searches of Theorem 18 on
// the root package's benchEngine graph family at n = 1024 (m ≈ 4n,
// weights <= 10, default worker pool), at the three sizes the serving
// system runs them: WH/k=321 is the §4 build's bunch computation,
// WH/k=32 the apsp stage, WHF/k=8 a knearest query with first-hop
// witnesses. Run with -benchmem; settled/op and relaxations/op are the
// nodes the searches settled and the arcs they relaxed (DESIGN.md §13).
func BenchmarkKNearestAll(b *testing.B) {
	const n = 1024
	g := graphgen.Connected(n, 3*n, graphgen.Weights{Max: 10}, int64(n)+17)
	b.Run("WH/k=321", func(b *testing.B) { benchKNearestAll[semiring.WH](b, g.AugSemiring(), g.WeightMatrix(), 321) })
	b.Run("WH/k=32", func(b *testing.B) { benchKNearestAll[semiring.WH](b, g.AugSemiring(), g.WeightMatrix(), 32) })
	b.Run("WHF/k=8", func(b *testing.B) { benchKNearestAll[semiring.WHF](b, routedSemiring(g), routedMatrix(g), 8) })
}

func benchKNearestAll[E any](b *testing.B, sr semiring.Ordered[E], w *matrix.Mat[E], k int) {
	b.ReportAllocs()
	b.ResetTimer()
	settled, relaxed := SearchWork()
	for i := 0; i < b.N; i++ {
		if _, err := KNearestAll(context.Background(), sr, w, k, 0); err != nil {
			b.Fatal(err)
		}
	}
	s, r := SearchWork()
	b.ReportMetric(float64(s-settled)/float64(b.N), "settled/op")
	b.ReportMetric(float64(r-relaxed)/float64(b.N), "relaxations/op")
}

// BenchmarkSourceDetectK measures the direct (S, d, k)-source detection of
// Theorem 19 (SourceDetectKLent, its answer given back after each call, as
// a served source_detection query does) on the same graph family at
// n = 1024 over |S| ∈ {32, 256, 1024}, d ∈ {4, 40} and k ∈ {4, 8, 32},
// default worker pool. The sources are a fixed random subset. Run with
// -benchmem.
func BenchmarkSourceDetectK(b *testing.B) {
	const n = 1024
	g := graphgen.Connected(n, 3*n, graphgen.Weights{Max: 10}, int64(n)+17)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	perm := rand.New(rand.NewSource(int64(n) + 19)).Perm(n)
	for _, q := range []int{32, 256, 1024} {
		inS := make([]bool, n)
		for _, v := range perm[:q] {
			inS[v] = true
		}
		for _, d := range []int{4, 40} {
			for _, k := range []int{4, 8, 32} {
				b.Run(fmt.Sprintf("S=%d/d=%d/k=%d", q, d, k), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						_, release, err := SourceDetectKLent(context.Background(), sr, w, inS, d, k, 0)
						if err != nil {
							b.Fatal(err)
						}
						release()
					}
				})
			}
		}
	}
}
