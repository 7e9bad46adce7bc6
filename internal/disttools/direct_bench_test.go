package disttools

import (
	"context"
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
	b.Run("WHF/k=8", func(b *testing.B) { benchKNearestAll[semiring.WHF](b, g.RoutedSemiring(), routedMatrix(g), 8) })
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
