package matmul

import (
	"fmt"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// The reference filtered kernel against Filter ∘ MulRef on adversarial
// inputs rather than random shapes: rank ties at exactly the k-th rank,
// rows one short of, at and one past ρ entries, empty S rows, S ≠ T
// without a diagonal, and weights one addition away from semiring.Inf.
// A case is a byte string, so the table test and FuzzKernelMulFiltered's
// seed corpus are the same cases.

// augInf's box (MaxW = Inf) admits the near-Inf weights of a case.
var augInf = semiring.AugMinPlus{MaxW: semiring.Inf, MaxH: 4}

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
	// reaches it at weight 1, so the third rank is at most W = 6. Four
	// columns end at exactly W = 6 with hops 2, 2, 3, 3 (columns 4, 5, 1,
	// 6), one at 7.
	ties := mk(8, 3,
		inS(0, 0, 1, 1), inS(0, 1, 2, 1), inS(0, 2, 4, 2),
		inT(0, 0, 0, 0), inT(0, 3, 2, 1), inT(0, 5, 5, 1),
		inT(1, 4, 4, 1), inT(1, 6, 4, 2),
		inT(2, 1, 2, 1), inT(2, 7, 3, 1),
		// Rows 1 and 2 of S stay empty; row 3 reaches only short T rows.
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
	// one short of, at, and one past a full row.
	sizes := mk(6, 3,
		inS(0, 1, 3, 1), inS(0, 2, 1, 1), inS(0, 3, 2, 1),
		inT(1, 0, 1, 1), inT(1, 5, 2, 1),
		inT(2, 0, 9, 1), inT(2, 1, 9, 2), inT(2, 2, 9, 0),
		inT(3, 2, 1, 1), inT(3, 3, 7, 1), inT(3, 4, 7, 2), inT(3, 5, 8, 1),
	)
	// Saturation. Row 1 reaches only T_1, over a near-Inf weight: two of
	// the four products stay finite (Inf-6 + 3, + 4) and two saturate, so
	// at rho 3 or 4 the row is short. Row 0 reaches a full T_2 next to the
	// same saturating row.
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
	copies := (2*pool.RowBlock)/m.N + 1
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

// checkBoundCase runs the reference filtered kernel on one decoded case,
// over WH (through KernelMulFilteredWH) and over the same matrices with
// witnesses.
func checkBoundCase(s, t *matrix.Mat[semiring.WH], rho int) error {
	if err := sameFiltered[semiring.WH](augInf, s, t, rho, func(s, t *matrix.Mat[semiring.WH], workers int) *matrix.Mat[semiring.WH] {
		return KernelMulFilteredWH(augInf, s, t, rho, workers)
	}); err != nil {
		return fmt.Errorf("WH: %w", err)
	}
	rt := semiring.RoutedMinPlus{MaxW: semiring.Inf, MaxH: 4}
	if err := sameFiltered[semiring.WHF](rt, routed(s, 0), routed(t, 1), rho, func(s, t *matrix.Mat[semiring.WHF], workers int) *matrix.Mat[semiring.WHF] {
		return KernelMulFilteredGeneric[semiring.WHF](rt, s, t, rho, workers)
	}); err != nil {
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

// FuzzKernelMulFiltered fuzzes the reference filtered kernel against
// Filter ∘ MulRef from the adversarial cases, as products S·T and as
// squarings T·T.
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
