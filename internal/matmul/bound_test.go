package matmul

import (
	"fmt"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// The filtered kernels against Filter ∘ MulRef on inputs built to sit on
// the weight bound of the bounded product (dense.go): not random shapes
// but rank ties at exactly τ, T rows one short of, at and one past ρ
// entries, empty S rows, S ≠ T without a diagonal, and weights one
// addition away from semiring.Inf. A case is a byte string, so the table
// test and FuzzKernelMulFiltered's seed corpus are the same cases.

// The semirings the cases run over. augInf's box (MaxW = Inf) does not
// pack, so it takes the generic row path, near-Inf weights included.
// augPacked's box holds every weight and hop count of a case without
// near-Inf weights and of the products sameShared forms from one (hops
// up to 6, weights up to 45), so it takes the packed WH kernel.
var (
	augInf    = semiring.AugMinPlus{MaxW: semiring.Inf, MaxH: 4}
	augPacked = semiring.AugMinPlus{MaxW: 1 << 20, MaxH: 8}
)

// boundCase decodes data into a pair of n×n matrices and a filter size.
// Byte 0 picks n in 2..10, byte 1 picks rho in -1..n+1, and every four
// bytes after that set one entry: (matrix and row, column, weight, hops).
// Weights are 0..15, so sums tie constantly, except that the top sixteen
// byte values map to Inf-16..Inf-1, whose products saturate or stay
// finite depending on the other factor. Hops are 0..2, so a product's
// stay within the test semirings' MaxH and hop ties are real rank ties.
func boundCase(data []byte) (s, t *matrix.Mat[semiring.WH], rho int) {
	n := 2 + int(data[0])%9
	rho = int(data[1])%(n+3) - 1
	s, t = matrix.New[semiring.WH](n), matrix.New[semiring.WH](n)
	for i := 2; i+3 < len(data); i += 4 {
		m := s
		if data[i]&0x80 != 0 {
			m = t
		}
		w := int64(data[i+2]) % 16
		if data[i+2] >= 240 {
			w = semiring.Inf - 256 + int64(data[i+2])
		}
		m.Set(augInf, int(data[i]&0x7f)%n, int(data[i+1])%n, semiring.WH{W: w, H: int64(data[i+3]) % 3})
	}
	return s, t, rho
}

// inS and inT spell one entry of a case.
func inS(row, col, w, h byte) []byte { return []byte{row, col, w, h} }
func inT(row, col, w, h byte) []byte { return []byte{0x80 | row, col, w, h} }

const nearInf = 250 // decodes to the weight Inf-6

// boundCases returns the named adversarial cases; byte 1 (rho) is the
// value the fuzz seed starts from, the table test sweeps every rho.
func boundCases() map[string][]byte {
	mk := func(n, rho byte, entries ...[]byte) []byte {
		return append([]byte{n - 2, rho + 1}, slices.Concat(entries...)...)
	}
	// Row 0 of the product at rho = 3: T_0 has exactly 3 entries and S_0
	// reaches it at weight 1, so τ = 1 + 5 = 6. Four columns end at
	// exactly W = 6 with hops 2, 2, 3, 3 (columns 4, 5, 1, 6), one at 7.
	ties := mk(8, 3,
		inS(0, 0, 1, 1), inS(0, 1, 2, 1), inS(0, 2, 4, 2),
		inT(0, 0, 0, 0), inT(0, 3, 2, 1), inT(0, 5, 5, 1),
		inT(1, 4, 4, 1), inT(1, 6, 4, 2),
		inT(2, 1, 2, 1), inT(2, 7, 3, 1),
		// Rows 1 and 2 of S stay empty; row 3 reaches only short T rows
		// (no bound of its own beside bounded row 0).
		inS(3, 1, 1, 1), inS(3, 2, 1, 1),
	)
	// The detection shape w·u: S has a diagonal, T holds only the two
	// "source" columns 1 and 4, every weight 1 so every sum ties.
	var detect [][]byte
	for v := byte(0); v < 6; v++ {
		detect = append(detect, inS(v, v, 0, 0), inS(v, (v+1)%6, 1, 1), inS(v, (v+5)%6, 1, 1))
		for _, src := range []byte{1, 4} {
			if d := (v + 6 - src) % 6; d == 0 {
				detect = append(detect, inT(v, src, 0, 0))
			} else if d == 1 || d == 5 {
				detect = append(detect, inT(v, src, 1, 1))
			}
		}
	}
	// T rows of 2, 3 and 4 entries under one S row: at rho = 3 they are
	// one short of, at, and one past the size that gives a bound.
	sizes := mk(6, 3,
		inS(0, 1, 3, 1), inS(0, 2, 1, 1), inS(0, 3, 2, 1),
		inT(1, 0, 1, 1), inT(1, 5, 2, 1),
		inT(2, 0, 9, 1), inT(2, 1, 9, 2), inT(2, 2, 9, 0),
		inT(3, 2, 1, 1), inT(3, 3, 7, 1), inT(3, 4, 7, 2), inT(3, 5, 8, 1),
	)
	// Saturation beside the τ break. Row 1 reaches only T_1, over a
	// near-Inf weight: two of the four products stay finite (Inf-6 + 3,
	// + 4), two saturate, and at rho 3 or 4 so does the sum that would be
	// its bound - the break must fall between them with no bound at all.
	// Row 0 gets a finite bound from T_2 next to the same saturating scan.
	saturate := mk(5, 3,
		inS(0, 1, nearInf, 1), inS(0, 2, 2, 1),
		inT(1, 0, 3, 1), inT(1, 2, 4, 1), inT(1, 3, 6, 1), inT(1, 4, 9, 1),
		inT(2, 1, 1, 1), inT(2, 2, 4, 1), inT(2, 3, nearInf, 1),
		inS(1, 1, nearInf, 0),
	)
	return map[string][]byte{
		"ties-at-tau":  ties,
		"detect-shape": mk(6, 2, detect...),
		"row-sizes":    sizes,
		"saturation":   saturate,
	}
}

// routed lifts m to the witness-carrying semiring. Witnesses depend on
// the entry's position, so products tied on (W, H) carry different ones
// and the smaller must win exactly as in MulRef.
func routed(m *matrix.Mat[semiring.WH], salt int) *matrix.Mat[semiring.WHF] {
	out := matrix.New[semiring.WHF](m.N)
	for r, row := range m.Rows {
		for _, e := range row {
			fh := int32((5*r + 3*int(e.Col) + salt) % m.N)
			if int(e.Col) == r {
				fh = -1
			}
			out.Rows[r] = append(out.Rows[r], matrix.Entry[semiring.WHF]{Col: e.Col, Val: semiring.WHF{W: e.Val.W, H: e.Val.H, FH: fh}})
		}
	}
	return out
}

// tiled repeats m along the diagonal until it spans three kernel blocks,
// so a worker count of 3 is not capped to 1 as it is for a tiny matrix.
func tiled[E any](m *matrix.Mat[E]) *matrix.Mat[E] {
	copies := (2*kernelBlock)/m.N + 1
	out := matrix.New[E](m.N * copies)
	for c := 0; c < copies; c++ {
		for r, row := range m.Rows {
			for _, e := range row {
				e.Col += int32(c * m.N)
				out.Rows[c*m.N+r] = append(out.Rows[c*m.N+r], e)
			}
		}
	}
	return out
}

// sameFiltered compares kernel against Filter ∘ MulRef on (s, t) as is
// and tiled, at workers 1 and 3. A nil row equals an empty one.
func sameFiltered[E comparable](sr semiring.Ordered[E], s, t *matrix.Mat[E], rho int, kernel func(s, t *matrix.Mat[E], workers int) *matrix.Mat[E]) error {
	for _, in := range [][2]*matrix.Mat[E]{{s, t}, {tiled(s), tiled(t)}} {
		want := matrix.Filter(sr, matrix.MulRef[E](sr, in[0], in[1]), rho)
		for _, workers := range []int{1, 3} {
			got := kernel(in[0], in[1], workers)
			for v := range want.Rows {
				if !slices.Equal(got.Rows[v], want.Rows[v]) {
					return fmt.Errorf("n=%d rho=%d workers=%d row %d = %v, want %v", in[0].N, rho, workers, v, got.Rows[v], want.Rows[v])
				}
			}
		}
	}
	return nil
}

// sameShared runs three successive products through one shared Filtered -
// a = Filter(S·T), b = Filter(T·a), c = Filter(b·b), so the view is laid
// out for three different right operands (bounded or not as each falls)
// and the third product writes the slab the first one left - and compares
// each with the one-shot kernel on copies of the same operands. a is
// compared again after b exists: the product in between must not touch it.
func sameShared[E comparable](sr semiring.Ordered[E], s, t *matrix.Mat[E], rho int) error {
	for _, in := range [][2]*matrix.Mat[E]{{s, t}, {tiled(s), tiled(t)}} {
		for _, workers := range []int{1, 3} {
			f := NewFiltered(sr, in[0].N, rho, workers)
			check := func(what string, got, want *matrix.Mat[E]) error {
				for v := range want.Rows {
					if !slices.Equal(got.Rows[v], want.Rows[v]) {
						return fmt.Errorf("shared %s n=%d rho=%d workers=%d row %d = %v, want %v", what, in[0].N, rho, workers, v, got.Rows[v], want.Rows[v])
					}
				}
				return nil
			}
			a, wantA := f.Mul(in[0], in[1]), NewFiltered(sr, in[0].N, rho, workers).Mul(in[0], in[1])
			if err := check("S·T", a, wantA); err != nil {
				return err
			}
			b, wantB := f.Mul(in[1], a), NewFiltered(sr, in[1].N, rho, workers).Mul(in[1], wantA)
			if err := check("T·a", b, wantB); err != nil {
				return err
			}
			if err := check("S·T after T·a", a, wantA); err != nil {
				return err
			}
			if err := check("b·b", f.Mul(b, b), NewFiltered(sr, wantB.N, rho, workers).Mul(wantB, wantB)); err != nil {
				return err
			}
		}
	}
	return nil
}

// inBox reports whether every weight of s and t is one of the small ones
// (no near-Inf weight), which puts the case in augPacked's box.
func inBox(s, t *matrix.Mat[semiring.WH]) bool {
	for _, m := range []*matrix.Mat[semiring.WH]{s, t} {
		for _, row := range m.Rows {
			if slices.ContainsFunc(row, func(e matrix.Entry[semiring.WH]) bool { return e.Val.W >= 16 }) {
				return false
			}
		}
	}
	return true
}

// checkBoundCase runs both filtered kernels on one decoded case: over WH
// (KernelMulFilteredWH and NewFiltered's dispatch) at augInf, which takes
// the generic row path, and at augPacked, which takes the packed one, when
// the case lies in its box; and the generic one over the same matrices
// with witnesses. Each runs as one-shot products and as successive
// products of one shared Filtered.
func checkBoundCase(s, t *matrix.Mat[semiring.WH], rho int) error {
	augs := []semiring.AugMinPlus{augInf}
	if inBox(s, t) {
		augs = append(augs, augPacked)
	}
	for _, aug := range augs {
		if err := sameFiltered[semiring.WH](aug, s, t, rho, func(s, t *matrix.Mat[semiring.WH], workers int) *matrix.Mat[semiring.WH] {
			return KernelMulFilteredWH(aug, s, t, rho, workers)
		}); err != nil {
			return fmt.Errorf("WH MaxW=%d: %w", aug.MaxW, err)
		}
		if err := sameFiltered[semiring.WH](aug, s, t, rho, func(s, t *matrix.Mat[semiring.WH], workers int) *matrix.Mat[semiring.WH] {
			return NewFiltered[semiring.WH](aug, s.N, rho, workers).Mul(s, t)
		}); err != nil {
			return fmt.Errorf("WH dispatch MaxW=%d: %w", aug.MaxW, err)
		}
		if err := sameShared[semiring.WH](aug, s, t, rho); err != nil {
			return fmt.Errorf("WH MaxW=%d: %w", aug.MaxW, err)
		}
	}
	rt := semiring.RoutedMinPlus{MaxW: semiring.Inf, MaxH: 4}
	if err := sameFiltered[semiring.WHF](rt, routed(s, 0), routed(t, 1), rho, func(s, t *matrix.Mat[semiring.WHF], workers int) *matrix.Mat[semiring.WHF] {
		return NewFiltered[semiring.WHF](rt, s.N, rho, workers).Mul(s, t)
	}); err != nil {
		return fmt.Errorf("WHF: %w", err)
	}
	if err := sameShared[semiring.WHF](rt, routed(s, 0), routed(t, 1), rho); err != nil {
		return fmt.Errorf("WHF: %w", err)
	}
	return nil
}

// TestKernelMulFilteredOnTheBound sweeps every filter size - below 1,
// each T row length minus one, exactly and plus one, n and past it - over
// the adversarial cases, as products S·T and as squarings T·T.
func TestKernelMulFilteredOnTheBound(t *testing.T) {
	for name, data := range boundCases() {
		s, tm, _ := boundCase(data)
		for rho := -1; rho <= s.N+1; rho++ {
			if err := checkBoundCase(s, tm, rho); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if err := checkBoundCase(tm, tm, rho); err != nil {
				t.Errorf("%s squared: %v", name, err)
			}
		}
	}
}

// TestBoundedPathTaken pins that the cases above exercise what they are
// named for: the bounded path runs exactly when some row of T reaches rho
// entries, and on "ties-at-tau" row 0 it accumulates the products at or
// under τ = 6 and none of the heavier ones.
func TestBoundedPathTaken(t *testing.T) {
	s, tm, rho := boundCase(boundCases()["ties-at-tau"])
	begun := func(rho int) *whKernel {
		f := NewFiltered[semiring.WH](augPacked, s.N, rho, 1)
		f.kernel.begin(tm, 0, f.run)
		return f.kernel.(*whKernel)
	}
	if begun(rho + 1).bounded {
		t.Errorf("no row of T has %d entries, yet a bounded view was built", rho+1)
	}
	k := begun(rho)
	if !k.bounded {
		t.Fatalf("T_0 has %d entries: the product must take the bounded path", rho)
	}
	before := ProductsAccumulated()
	wk := k.worker(0)
	wk.mulRowBounded(s.Rows[0], &k.view, k.m)
	row := wk.emit(k.m)
	if got := ProductsAccumulated() - before; got != 6 {
		t.Errorf("row 0 accumulated %d products, want 6 of its 7 (the one at W = 7 is past τ)", got)
	}
	for _, e := range row {
		if e.Val.W > 6 {
			t.Errorf("bounded row holds %+v, heavier than τ = 6", e)
		}
	}
}

// TestPackedKeysAtTheBoxEdge holds the packed kernel to Filter ∘ MulRef
// on factors at the corners of augPacked's box, which the byte-decoded
// cases never reach: hop counts at MaxH, whose products reach 2·MaxH, and
// weights at MaxW. Row 0 reaches column 3 as (0, 2·MaxH) through column 1
// and as (1, 0) through column 2; the first is the lexicographic min, and
// it stays the smaller key only while a product's hop count stays below
// the key multiplier.
func TestPackedKeysAtTheBoxEdge(t *testing.T) {
	h, w := augPacked.MaxH, augPacked.MaxW
	s, tm := matrix.New[semiring.WH](5), matrix.New[semiring.WH](5)
	s.Set(augPacked, 0, 1, semiring.WH{W: 0, H: h})
	s.Set(augPacked, 0, 2, semiring.WH{W: 1, H: 0})
	s.Set(augPacked, 1, 4, semiring.WH{W: w, H: h})
	tm.Set(augPacked, 1, 3, semiring.WH{W: 0, H: h})
	tm.Set(augPacked, 2, 3, semiring.WH{W: 0, H: 0})
	tm.Set(augPacked, 4, 0, semiring.WH{W: w, H: h})
	tm.Set(augPacked, 4, 4, semiring.WH{W: w, H: 0})
	if !NewFiltered[semiring.WH](augPacked, s.N, 1, 1).wh() {
		t.Fatal("augPacked does not take the packed kernel")
	}
	for rho := 1; rho <= s.N; rho++ {
		for _, in := range [][2]*matrix.Mat[semiring.WH]{{s, tm}, {tm, tm}} {
			if err := sameFiltered[semiring.WH](augPacked, in[0], in[1], rho, func(s, t *matrix.Mat[semiring.WH], workers int) *matrix.Mat[semiring.WH] {
				return NewFiltered[semiring.WH](augPacked, s.N, rho, workers).Mul(s, t)
			}); err != nil {
				t.Error(err)
			}
		}
	}
}

// FuzzKernelMulFiltered fuzzes both filtered kernels against
// Filter ∘ MulRef from the adversarial cases, and three successive products
// of one shared Filtered against the one-shot kernels. Every seed but
// "saturation" lies in augPacked's box, so the packed kernel is fuzzed
// beside the generic fallback.
func FuzzKernelMulFiltered(f *testing.F) {
	for _, data := range boundCases() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		s, tm, rho := boundCase(data)
		if err := checkBoundCase(s, tm, rho); err != nil {
			t.Fatal(err)
		}
		if err := checkBoundCase(tm, tm, rho); err != nil {
			t.Fatalf("squared: %v", err)
		}
	})
}
