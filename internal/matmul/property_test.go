package matmul

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// TestMultiplyProperty: for random sparse min-plus matrices of random
// shapes, the distributed product equals the sequential reference.
func TestMultiplyProperty(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	prop := func(seed int64, nRaw, dS, dT uint8) bool {
		n := int(nRaw)%24 + 2
		s := randMat(n, int(dS)%n+1, seed)
		tm := randMat(n, int(dT)%n+1, seed+1)
		rhoHat := matrix.SupportDensity[int64](s, tm)
		want := matrix.MulRef[int64](sr, s, tm)
		got := matrix.New[int64](n)
		_, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
			row, err := Multiply(nd, sr, s.Rows[nd.ID], tm.Rows[nd.ID], rhoHat)
			if err != nil {
				return err
			}
			got.Rows[nd.ID] = row
			return nil
		})
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}
		return matrix.Equal[int64](sr, got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFilteredProperty: the distributed filtered product equals the
// filtered reference for random shapes and filter sizes.
func TestFilteredProperty(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 20)
	prop := func(seed int64, nRaw, dRaw, rhoRaw uint8) bool {
		n := int(nRaw)%24 + 2
		d := int(dRaw)%n + 1
		rho := int(rhoRaw)%n + 1
		s := randMat(n, d, seed+100)
		tm := randMat(n, d, seed+101)
		want := matrix.Filter[int64](sr, matrix.MulRef[int64](sr, s, tm), rho)
		got := matrix.New[int64](n)
		_, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
			got.Rows[nd.ID] = MultiplyFiltered(nd, sr, s.Rows[nd.ID], tm.Rows[nd.ID], rho)
			return nil
		})
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}
		return matrix.Equal[int64](sr, got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiplyRectangularShapes exercises the padding claim of §2.1:
// rectangular multiplications are square multiplications with zero rows.
func TestMultiplyRectangularShapes(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	n := 20
	// S is n x n, T has only 5 populated rows (an n x 5 product after
	// transposition of roles).
	s := randMat(n, 4, 301)
	tm := matrix.New[int64](n)
	rng := rand.New(rand.NewSource(302))
	for i := 0; i < 5; i++ {
		row := make(matrix.Row[int64], 0, 4)
		seen := map[int32]bool{}
		for len(row) < 4 {
			c := int32(rng.Intn(n))
			if !seen[c] {
				seen[c] = true
				row = append(row, matrix.Entry[int64]{Col: c, Val: int64(rng.Intn(50) + 1)})
			}
		}
		tm.Rows[i*3] = matrix.SortRow(row)
	}
	want := matrix.MulRef[int64](sr, s, tm)
	got, _ := runMultiply[int64](t, sr, s, tm, matrix.SupportDensity[int64](s, tm))
	if !matrix.Equal[int64](sr, got, want) {
		t.Error("rectangular-shaped product differs from reference")
	}
}

// TestMultiplySelfAndPowers: A², A⁴ by repeated distributed squaring match
// reference powers (the §3.1 usage pattern).
func TestMultiplySelfAndPowers(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	n := 16
	a := randMat(n, 3, 303)
	want := a.Clone()
	got := a.Clone()
	for pow := 0; pow < 2; pow++ {
		want = matrix.MulRef[int64](sr, want, want)
		next := matrix.New[int64](n)
		_, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
			next.Rows[nd.ID] = MultiplyAuto(nd, sr, got.Rows[nd.ID], got.Rows[nd.ID])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got = next
		if !matrix.Equal[int64](sr, got, want) {
			t.Fatalf("power %d differs from reference", pow+2)
		}
	}
}

// TestMultiplyDeterministic: identical runs give identical outputs and
// stats (the paper's algorithms are deterministic), and the stats are the
// pinned rounds and messages of both simulated products, so a change to
// which packets go where fails here and not only in the server's golden
// files.
func TestMultiplyDeterministic(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 20)
	cases := []struct {
		n, per, rho       int
		seed              int64
		filtered, product string
	}{
		{24, 5, 3, 1, "rounds=141 (sim=10 route=122 sort=9) msgs=14080", "rounds=45 (sim=13 route=20 sort=12) msgs=9220"},
		{36, 6, 6, 2, "rounds=145 (sim=10 route=126 sort=9) msgs=28811", "rounds=32 (sim=10 route=13 sort=9) msgs=16562"},
		{64, 8, 4, 3, "rounds=145 (sim=10 route=126 sort=9) msgs=93205", "rounds=32 (sim=10 route=13 sort=9) msgs=51018"},
		{49, 12, 7, 4, "rounds=154 (sim=13 route=129 sort=12) msgs=75935", "rounds=53 (sim=13 route=28 sort=12) msgs=45629"},
	}
	for _, tc := range cases {
		s := randMat(tc.n, tc.per, tc.seed)
		tm := randMat(tc.n, tc.per, tc.seed+100)
		products := []struct {
			name, want string
			row        func(nd *cc.Node) (matrix.Row[int64], error)
		}{
			{"MultiplyFiltered", tc.filtered, func(nd *cc.Node) (matrix.Row[int64], error) {
				return MultiplyFiltered(nd, sr, s.Rows[nd.ID], tm.Rows[nd.ID], tc.rho), nil
			}},
			{"Multiply", tc.product, func(nd *cc.Node) (matrix.Row[int64], error) {
				return Multiply(nd, sr, s.Rows[nd.ID], tm.Rows[nd.ID], tc.n)
			}},
		}
		for _, p := range products {
			run := func() (string, *matrix.Mat[int64]) {
				got := matrix.New[int64](tc.n)
				stats, err := cc.Run(context.Background(), cc.Config{N: tc.n}, func(nd *cc.Node) error {
					row, err := p.row(nd)
					got.Rows[nd.ID] = row
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				return stats.String(), got
			}
			s1, g1 := run()
			s2, g2 := run()
			if s1 != p.want || s2 != p.want {
				t.Errorf("%s n=%d per=%d rho=%d seed=%d: stats %q and %q, want %q", p.name, tc.n, tc.per, tc.rho, tc.seed, s1, s2, p.want)
			}
			if !matrix.Equal[int64](sr, g1, g2) {
				t.Errorf("%s n=%d: outputs differ between identical runs", p.name, tc.n)
			}
		}
	}
}

// withReflexiveDiagonal returns m with every diagonal entry forced to 0
// (the reflexive closure min-plus convergence needs).
func withReflexiveDiagonal(m *matrix.Mat[int64]) *matrix.Mat[int64] {
	out := matrix.New[int64](m.N)
	for v := range m.Rows {
		row := make(matrix.Row[int64], 0, len(m.Rows[v])+1)
		hasDiag := false
		for _, e := range m.Rows[v] {
			if int(e.Col) == v {
				hasDiag = true
				row = append(row, matrix.Entry[int64]{Col: e.Col, Val: 0})
			} else {
				row = append(row, e)
			}
		}
		if !hasDiag {
			row = append(row, matrix.Entry[int64]{Col: int32(v), Val: 0})
		}
		out.Rows[v] = matrix.SortRow(row)
	}
	return out
}

// TestKernelMulEquivalence: the block-partitioned host kernel equals the
// unpartitioned sequential reference for every worker count - the direct
// execution mode's ground contract (DESIGN.md §12). Worker count 1 runs
// the serial inline path; larger counts exercise the atomic block
// claiming.
func TestKernelMulEquivalence(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	prop := func(seed int64, nRaw, dS, dT uint8) bool {
		n := int(nRaw)%24 + 2
		s := randMat(n, int(dS)%n+1, seed+400)
		tm := randMat(n, int(dT)%n+1, seed+401)
		want := matrix.MulRef[int64](sr, s, tm)
		for _, workers := range []int{1, 2, 3, 8} {
			if !matrix.Equal[int64](sr, KernelMul[int64](sr, s, tm, workers), want) {
				t.Logf("workers=%d differs (n=%d)", workers, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelMulWHEquivalence: over the augmented semiring, KernelMulWH
// and KernelMul equal matrix.MulRef entry for entry at every worker count.
func TestKernelMulWHEquivalence(t *testing.T) {
	sr := semiring.NewAugMinPlus(1<<30, 1<<16)
	prop := func(seed int64, nRaw, dS, dT uint8) bool {
		n := int(nRaw)%24 + 2
		s := randMatWH(n, int(dS)%n+1, seed+800)
		tm := randMatWH(n, int(dT)%n+1, seed+801)
		want := matrix.MulRef[semiring.WH](sr, s, tm)
		for _, workers := range []int{1, 2, 3, 8} {
			if !sameMatWH(t, KernelMulWH(s, tm, workers), want, "wrapper") {
				t.Logf("workers=%d differs (n=%d)", workers, n)
				return false
			}
			if !sameMatWH(t, KernelMul[semiring.WH](sr, s, tm, workers), want, "generic") {
				t.Logf("generic workers=%d differs (n=%d)", workers, n)
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
// semiring.Inf are semiring zeros, dropped at emit exactly as
// matrix.MulRef drops them, at every worker count.
func TestKernelMulWHSaturation(t *testing.T) {
	sr := semiring.NewAugMinPlus(1<<30, 1<<16)
	s, tm := saturatingMatsWH(6)
	want := matrix.MulRef[semiring.WH](sr, s, tm)
	for _, workers := range []int{1, 2, 3, 8} {
		if !sameMatWH(t, KernelMulWH(s, tm, workers), want, "saturation") {
			t.Fatalf("workers=%d: saturating products differ from MulRef", workers)
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

// TestKernelMulFilteredEquivalence: the reference filtered kernel equals
// Filter ∘ MulRef - the same identity MultiplyFiltered satisfies
// (Theorem 14's output contract) - for every worker count.
func TestKernelMulFilteredEquivalence(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 20)
	prop := func(seed int64, nRaw, dRaw, rhoRaw uint8) bool {
		n := int(nRaw)%24 + 2
		d := int(dRaw)%n + 1
		rho := int(rhoRaw)%n + 1
		s := randMat(n, d, seed+500)
		tm := randMat(n, d, seed+501)
		want := matrix.Filter[int64](sr, matrix.MulRef[int64](sr, s, tm), rho)
		for _, workers := range []int{1, 3, 8} {
			if !matrix.Equal[int64](sr, KernelMulFilteredGeneric[int64](sr, s, tm, rho, workers), want) {
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

// TestMinPlusAssociativity: (A·B)·C == A·(B·C) over the min-plus
// semiring - the algebraic fact that lets the direct mode regroup and
// reorder the paper's product chains without changing any entry.
func TestMinPlusAssociativity(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	prop := func(seed int64, nRaw, dRaw uint8) bool {
		n := int(nRaw)%20 + 2
		d := int(dRaw)%n + 1
		a := randMat(n, d, seed+600)
		b := randMat(n, d, seed+601)
		c := randMat(n, d, seed+602)
		left := KernelMul[int64](sr, KernelMul[int64](sr, a, b, 3), c, 3)
		right := KernelMul[int64](sr, a, KernelMul[int64](sr, b, c, 3), 3)
		return matrix.Equal[int64](sr, left, right)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestIdempotentClosureConvergence: with a reflexive diagonal, repeated
// self-products are monotone and reach the min-plus closure within
// ⌈log₂ n⌉ squarings; one more squaring is a no-op (idempotence). This is
// the fixed-point argument behind the k-nearest iteration count
// (Lemma 17) that both execution modes rely on.
func TestIdempotentClosureConvergence(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 40)
	prop := func(seed int64, nRaw, dRaw uint8) bool {
		n := int(nRaw)%20 + 2
		d := int(dRaw)%n + 1
		a := withReflexiveDiagonal(randMat(n, d, seed+700))
		cur := a
		// ceil(log2 n) squarings reach the closure A^n.
		for sq := 1; sq < n; sq *= 2 {
			cur = KernelMul[int64](sr, cur, cur, 3)
		}
		again := KernelMul[int64](sr, cur, cur, 3)
		return matrix.Equal[int64](sr, again, cur)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkHelpers covers the chunk-selection arithmetic directly.
func TestChunkHelpers(t *testing.T) {
	product := make([]triple[int64], 10)
	for i := range product {
		product[i] = triple[int64]{row: int32(i)}
	}
	if got := chunk(product, 0, 4); len(got) != 4 || got[0].row != 0 {
		t.Errorf("chunk 0: %v", got)
	}
	if got := chunk(product, 2, 4); len(got) != 2 || got[0].row != 8 {
		t.Errorf("chunk 2: %v", got)
	}
	if got := chunk(product, 3, 4); got != nil {
		t.Errorf("chunk beyond end: %v", got)
	}
	if got := chunkTail(product, 1, 4); len(got) != 6 || got[0].row != 4 {
		t.Errorf("chunkTail: %v", got)
	}
	if got := chunkTail(product, 9, 4); got != nil {
		t.Errorf("chunkTail beyond end: %v", got)
	}
}

// TestBuildSigma2 covers the Lemma 12 helper-assignment arithmetic.
func TestBuildSigma2(t *testing.T) {
	counts := []int64{10, 0, 25, 4}
	sigma := buildSigma2(counts, 4, 8, 10)
	// Subcube 0 needs floor(10/10)=1 helper, subcube 2 floor(25/10)=2,
	// subcube 3 floor(4/10)=0.
	wantPrefix := []int32{0, 2, 2, -1, -1, -1, -1, -1}
	for i, want := range wantPrefix {
		if sigma[i] != want {
			t.Errorf("sigma[%d]=%d, want %d (full: %v)", i, sigma[i], want, sigma)
			break
		}
	}
}

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

// saturatingMatsWH builds an augmented pair S, T whose product has
// entries that overflow past semiring.Inf: S's off-diagonal weight is
// finite but saturates when a T weight above 5 is added. Row v's column
// v+3 meets a saturating product beside a finite one, and column v+4 is
// reached only by a saturating product, so it is a semiring zero and
// must not be stored.
func saturatingMatsWH(n int) (*matrix.Mat[semiring.WH], *matrix.Mat[semiring.WH]) {
	s := matrix.New[semiring.WH](n)
	tm := matrix.New[semiring.WH](n)
	big := semiring.Inf - 5
	for v := 0; v < n; v++ {
		s.Rows[v] = matrix.SortRow(matrix.Row[semiring.WH]{
			{Col: int32(v), Val: semiring.WH{W: 0, H: 0}},
			{Col: int32((v + 1) % n), Val: semiring.WH{W: big, H: 1}},
		})
		tm.Rows[v] = matrix.SortRow(matrix.Row[semiring.WH]{
			{Col: int32(v), Val: semiring.WH{W: 0, H: 0}},
			{Col: int32((v + 2) % n), Val: semiring.WH{W: 3, H: 1}},
			{Col: int32((v + 3) % n), Val: semiring.WH{W: 7, H: 1}},
		})
	}
	return s, tm
}

// sameMatWH asserts exact entry-for-entry equality, stricter than
// matrix.Equal: it compares the stored representation (columns, weights,
// hops) entry by entry, which is the byte-identity contract of the
// direct kernels.
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
