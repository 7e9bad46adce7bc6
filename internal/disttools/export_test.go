package disttools

import (
	"testing"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// The helpers the external tests of this package share with its internal
// ones: the external tests build the §6.3 subgraph G' with internal/apsp,
// which imports this package.
var (
	CheckRouted    = checkRouted
	FixpointGraphs = fixpointGraphs
)

func KNearestAllRef[E any](sr semiring.Ordered[E], w *matrix.Mat[E], k int) *matrix.Mat[E] {
	return knearestAllRef(sr, w, k)
}

func SameRows[E comparable](t *testing.T, what string, got, want *matrix.Mat[E]) {
	t.Helper()
	sameRows(t, what, got, want)
}
