package matmul

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// runMultiply executes the distributed Theorem 8 multiplication of full
// matrices and gathers the output rows.
func runMultiply[E any](t *testing.T, sr semiring.Semiring[E], s, tm *matrix.Mat[E], rhoHat int) (*matrix.Mat[E], cc.Stats) {
	t.Helper()
	n := s.N
	out := matrix.New[E](n)
	stats, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
		row, err := Multiply(nd, sr, s.Rows[nd.ID], tm.Rows[nd.ID], rhoHat)
		if err != nil {
			return err
		}
		out.Rows[nd.ID] = row
		return nil
	})
	if err != nil {
		t.Fatalf("Multiply failed: %v", err)
	}
	return out, stats
}

func randMat(n, perRow int, seed int64) *matrix.Mat[int64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New[int64](n)
	for i, cols := range matrix.RandomSupport(n, perRow, seed) {
		row := make(matrix.Row[int64], 0, len(cols))
		for _, c := range cols {
			row = append(row, matrix.Entry[int64]{Col: c, Val: int64(rng.Intn(1000) + 1)})
		}
		m.Rows[i] = matrix.SortRow(row)
	}
	return m
}

func TestMultiplyIdentity(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	for _, n := range []int{2, 5, 16} {
		m := randMat(n, min(3, n), 7)
		id := matrix.Identity[int64](sr, n)
		got, _ := runMultiply[int64](t, sr, m, id, n)
		if !matrix.Equal[int64](sr, got, m) {
			t.Errorf("n=%d: M*I != M", n)
		}
		got, _ = runMultiply[int64](t, sr, id, m, n)
		if !matrix.Equal[int64](sr, got, m) {
			t.Errorf("n=%d: I*M != M", n)
		}
	}
}

func TestMultiplyMatchesReferenceMinPlus(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	cases := []struct {
		n, perRowS, perRowT int
		seed                int64
	}{
		{4, 2, 2, 1},
		{8, 3, 2, 2},
		{16, 4, 4, 3},
		{24, 2, 8, 4},
		{32, 6, 6, 5},
		{48, 1, 1, 6},
		{33, 5, 3, 7}, // odd n: parameter rounding paths
	}
	for _, tc := range cases {
		s := randMat(tc.n, tc.perRowS, tc.seed)
		tm := randMat(tc.n, tc.perRowT, tc.seed+100)
		want := matrix.MulRef[int64](sr, s, tm)
		rhoHat := matrix.SupportDensity[int64](s, tm)
		got, _ := runMultiply[int64](t, sr, s, tm, rhoHat)
		if !matrix.Equal[int64](sr, got, want) {
			t.Errorf("n=%d seed=%d: distributed product differs from reference", tc.n, tc.seed)
		}
	}
}

func TestMultiplyAugmentedSemiring(t *testing.T) {
	n := 20
	sr := semiring.NewAugMinPlus(int64(n)*1000, int64(n))
	rng := rand.New(rand.NewSource(11))
	s := matrix.New[semiring.WH](n)
	for i, cols := range matrix.RandomSupport(n, 4, 21) {
		row := make(matrix.Row[semiring.WH], 0, len(cols))
		for _, c := range cols {
			row = append(row, matrix.Entry[semiring.WH]{Col: c, Val: semiring.WH{W: int64(rng.Intn(50) + 1), H: 1}})
		}
		s.Rows[i] = matrix.SortRow(row)
	}
	want := matrix.MulRef[semiring.WH](sr, s, s)
	rhoHat := matrix.SupportDensity[semiring.WH](s, s)
	got, _ := runMultiply[semiring.WH](t, sr, s, s, rhoHat)
	if !matrix.Equal[semiring.WH](sr, got, want) {
		t.Error("augmented distance product differs from reference")
	}
}

func TestMultiplyArithWithCancellation(t *testing.T) {
	// Over the standard ring, cancellations may make the true output
	// sparser than ρ̂ (which is defined on supports); the algorithm must
	// still be correct.
	sr := semiring.Arith{}
	n := 12
	rng := rand.New(rand.NewSource(5))
	mk := func(seed int64) *matrix.Mat[int64] {
		m := matrix.New[int64](n)
		for i, cols := range matrix.RandomSupport(n, 4, seed) {
			row := make(matrix.Row[int64], 0, len(cols))
			for _, c := range cols {
				v := int64(rng.Intn(7) - 3)
				if v == 0 {
					v = 1
				}
				row = append(row, matrix.Entry[int64]{Col: c, Val: v})
			}
			m.Rows[i] = matrix.SortRow(row)
		}
		return m
	}
	s, tm := mk(31), mk(32)
	want := matrix.MulRef[int64](sr, s, tm)
	rhoHat := matrix.SupportDensity[int64](s, tm)
	got, _ := runMultiply[int64](t, sr, s, tm, rhoHat)
	if !matrix.Equal[int64](sr, got, want) {
		t.Error("ring product with cancellation differs from reference")
	}
}

func TestMultiplyDensityUnderestimated(t *testing.T) {
	// A star: row 0 is full and column 0 is full, so the product support
	// is the full matrix (ρ̂ = n); claiming ρ̂ = 1 must fail consistently.
	sr := semiring.NewMinPlus(1 << 40)
	n := 16
	s := matrix.New[int64](n)
	for j := 0; j < n; j++ {
		s.Set(sr, 0, j, 1)
		s.Set(sr, j, 0, 1)
	}
	sawErr := make([]bool, n) // per-node slot: no cross-goroutine writes
	_, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
		_, err := Multiply(nd, sr, s.Rows[nd.ID], s.Rows[nd.ID], 1)
		if errors.Is(err, ErrDensityUnderestimated) {
			sawErr[nd.ID] = true
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, saw := range sawErr {
		if !saw {
			t.Errorf("node %d did not see ErrDensityUnderestimated; all must agree", v)
		}
	}
}

func TestMultiplyAutoFindsDensity(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	n := 16
	s := matrix.New[int64](n)
	for j := 0; j < n; j++ {
		s.Set(sr, 0, j, 1)
		s.Set(sr, j, 0, 1)
	}
	want := matrix.MulRef[int64](sr, s, s)
	out := matrix.New[int64](n)
	_, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
		out.Rows[nd.ID] = MultiplyAuto(nd, sr, s.Rows[nd.ID], s.Rows[nd.ID])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal[int64](sr, out, want) {
		t.Error("MultiplyAuto product differs from reference")
	}
}

func TestMultiplyEmpty(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	n := 8
	empty := matrix.New[int64](n)
	got, _ := runMultiply[int64](t, sr, empty, empty, 1)
	if got.NNZ() != 0 {
		t.Errorf("empty product has %d entries", got.NNZ())
	}
}

// TestTheorem8RoundsFlat is the core scaling claim of Theorem 8: with
// ρS = ρT = ρ̂ = √n the term (ρSρT ρ̂)^{1/3}/n^{2/3} = O(1), so total rounds
// must stay bounded as n grows (no polynomial growth).
func TestTheorem8RoundsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	sr := semiring.NewMinPlus(1 << 40)
	rounds := map[int]int{}
	for _, n := range []int{36, 144} {
		perRow := isqrt(n)
		s := randMat(n, perRow, int64(n))
		tm := randMat(n, perRow, int64(n)+1)
		rhoHat := matrix.SupportDensity[int64](s, tm)
		want := matrix.MulRef[int64](sr, s, tm)
		got, stats := runMultiply[int64](t, sr, s, tm, rhoHat)
		if !matrix.Equal[int64](sr, got, want) {
			t.Fatalf("n=%d: wrong product", n)
		}
		rounds[n] = stats.TotalRounds()
	}
	// 4x the nodes must not cost 2x the rounds in the O(1) regime.
	if rounds[144] > 2*rounds[36] {
		t.Errorf("rounds grew with n in the O(1) regime: %v", rounds)
	}
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// TestPkDecomposition (Figure 2 claim): summing the layer matrices P_k
// equals the product P - verified end to end by comparing the distributed
// output with the reference product.
func TestPkDecomposition(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 30)
	n := 16
	s := randMat(n, 4, 83)
	tm := randMat(n, 4, 84)
	want := matrix.MulRef[int64](sr, s, tm)
	got, _ := runMultiply[int64](t, sr, s, tm, matrix.SupportDensity[int64](s, tm))
	if !matrix.Equal[int64](sr, got, want) {
		t.Error("sum of subtask layers differs from the true product")
	}
}
