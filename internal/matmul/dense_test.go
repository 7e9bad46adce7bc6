package matmul

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// randMatWH builds a random sparse augmented matrix with about perRow
// entries per row (plus a zero diagonal, as every query-path matrix has).
func randMatWH(n, perRow int, seed int64) *matrix.Mat[semiring.WH] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New[semiring.WH](n)
	for v := 0; v < n; v++ {
		row := matrix.Row[semiring.WH]{{Col: int32(v), Val: semiring.WH{W: 0, H: 0}}}
		seen := map[int32]bool{int32(v): true}
		for i := 0; i < perRow; i++ {
			c := int32(rng.Intn(n))
			if !seen[c] {
				seen[c] = true
				row = append(row, matrix.Entry[semiring.WH]{
					Col: c,
					Val: semiring.WH{W: int64(rng.Intn(40) + 1), H: int64(rng.Intn(4) + 1)},
				})
			}
		}
		m.Rows[v] = matrix.SortRow(row)
	}
	return m
}

// sameMatWH asserts exact entry-for-entry equality, stricter than
// matrix.Equal: it distinguishes the stored representation (columns,
// weights, hops) entry by entry, which is the byte-identity contract the
// specialized kernel must honor.
func sameMatWH(t *testing.T, got, want *matrix.Mat[semiring.WH], label string) bool {
	t.Helper()
	if got.N != want.N {
		t.Logf("%s: size %d != %d", label, got.N, want.N)
		return false
	}
	for v := 0; v < want.N; v++ {
		g, w := got.Rows[v], want.Rows[v]
		if len(g) != len(w) {
			t.Logf("%s: row %d length %d != %d", label, v, len(g), len(w))
			return false
		}
		for i := range w {
			if g[i] != w[i] {
				t.Logf("%s: row %d entry %d: %+v != %+v", label, v, i, g[i], w[i])
				return false
			}
		}
	}
	return true
}

// TestKernelMulWHEquivalence: the specialized augmented kernel equals the
// generic reference (and therefore matrix.MulRef) entry for entry, at
// every worker count. Random shapes cover both the sparse-row and the
// dense-tile paths of mulRow; the densities below force each explicitly.
func TestKernelMulWHEquivalence(t *testing.T) {
	sr := semiring.NewAugMinPlus(1<<30, 1<<16)
	prop := func(seed int64, nRaw, dS, dT uint8) bool {
		n := int(nRaw)%24 + 2
		s := randMatWH(n, int(dS)%n+1, seed+800)
		tm := randMatWH(n, int(dT)%n+1, seed+801)
		want := KernelMulGeneric[semiring.WH](sr, s, tm, 1)
		for _, workers := range []int{1, 2, 3, 8} {
			if !sameMatWH(t, KernelMulWH(s, tm, workers), want, "direct") {
				t.Logf("workers=%d differs (n=%d)", workers, n)
				return false
			}
			// The dispatching entry point must route here too.
			if !sameMatWH(t, KernelMul[semiring.WH](sr, s, tm, workers), want, "dispatch") {
				t.Logf("dispatch workers=%d differs (n=%d)", workers, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelMulWHDensityPaths pins each mulRow path: a near-empty matrix
// keeps every row under the products >= n threshold (sparse path), a
// dense one puts every row over it (dense tile), and both must equal the
// generic kernel exactly.
func TestKernelMulWHDensityPaths(t *testing.T) {
	sr := semiring.NewAugMinPlus(1<<30, 1<<16)
	n := 40
	for _, tc := range []struct {
		name   string
		perRow int
	}{
		{"sparse", 1},   // ~2 entries/row: products ~ 4 < n
		{"dense", n},    // full rows: products ~ n² >= n
		{"boundary", 6}, // ~7 entries/row: products ~ 49 straddles n
	} {
		s := randMatWH(n, tc.perRow, 900)
		tm := randMatWH(n, tc.perRow, 901)
		want := KernelMulGeneric[semiring.WH](sr, s, tm, 1)
		for _, workers := range []int{1, 4} {
			if !sameMatWH(t, KernelMulWH(s, tm, workers), want, tc.name) {
				t.Fatalf("%s: workers=%d differs from generic", tc.name, workers)
			}
		}
	}
}

// TestKernelMulFilteredWHEquivalence: the augmented filtered product
// equals Filter ∘ MulRef for random shapes, filter sizes, and worker
// counts (including rho >= row length, where FilterRow returns its input).
func TestKernelMulFilteredWHEquivalence(t *testing.T) {
	sr := semiring.NewAugMinPlus(1<<30, 1<<16)
	prop := func(seed int64, nRaw, dRaw, rhoRaw uint8) bool {
		n := int(nRaw)%24 + 2
		d := int(dRaw)%n + 1
		rho := int(rhoRaw)%n + 1
		s := randMatWH(n, d, seed+1000)
		tm := randMatWH(n, d, seed+1001)
		want := matrix.Filter[semiring.WH](sr, matrix.MulRef[semiring.WH](sr, s, tm), rho)
		for _, workers := range []int{1, 2, 3, 8} {
			if !sameMatWH(t, KernelMulFilteredWH(sr, s, tm, rho, workers), want, "filtered") {
				t.Logf("workers=%d differs (n=%d rho=%d)", workers, n, rho)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelMulWHSaturation: entries whose products overflow past
// semiring.Inf are dropped identically by both kernels (the specialized
// skip-at-accumulate shortcut vs the generic drop-at-emit).
func TestKernelMulWHSaturation(t *testing.T) {
	sr := semiring.NewAugMinPlus(1<<30, 1<<16)
	n := 6
	s := matrix.New[semiring.WH](n)
	tm := matrix.New[semiring.WH](n)
	big := semiring.Inf - 5 // finite, but saturates when added to weights > 5
	for v := 0; v < n; v++ {
		s.Rows[v] = matrix.Row[semiring.WH]{
			{Col: int32(v), Val: semiring.WH{W: 0, H: 0}},
			{Col: int32((v + 1) % n), Val: semiring.WH{W: big, H: 1}},
		}
		tm.Rows[v] = matrix.Row[semiring.WH]{
			{Col: int32(v), Val: semiring.WH{W: 0, H: 0}},
			{Col: int32((v + 2) % n), Val: semiring.WH{W: 7, H: 1}},
			{Col: int32((v + 3) % n), Val: semiring.WH{W: 3, H: 1}},
		}
		s.Rows[v] = matrix.SortRow(s.Rows[v])
		tm.Rows[v] = matrix.SortRow(tm.Rows[v])
	}
	want := KernelMulGeneric[semiring.WH](sr, s, tm, 1)
	if !sameMatWH(t, KernelMulWH(s, tm, 1), want, "saturation") {
		t.Fatal("saturating products handled differently from generic kernel")
	}
}
