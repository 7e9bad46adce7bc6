package disttools

import (
	"context"
	"testing"

	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// BenchmarkKNearestAll measures the filtered squarings of Theorem 18 on
// the root package's benchEngine graph family at n = 1024 (m ≈ 4n,
// weights <= 10, default worker pool), at the three sizes the serving
// system runs them: WH/k=321 is the §4 build's bunch computation,
// WH/k=32 the apsp stage, WHF/k=8 a knearest query on the generic
// kernel. Run with -benchmem; products/op is what the kernels
// accumulated, the work a ρ-filter's weight bound exists to cut
// (DESIGN.md §13).
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
	before := matmul.ProductsAccumulated()
	for i := 0; i < b.N; i++ {
		if _, err := KNearestAll(context.Background(), sr, w, k, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(matmul.ProductsAccumulated()-before)/float64(b.N), "products/op")
}
