package matmul

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// foldRef is what FoldMinPlus must leave in the table: the reference
// product, min-ed into a copy of the table cell by cell.
func foldRef(table [][]int64, s, t *matrix.Mat[int64]) [][]int64 {
	want := make([][]int64, len(table))
	for i, row := range table {
		want[i] = slices.Clone(row)
	}
	for i, row := range matrix.MulRef[int64](semiring.NewMinPlus(semiring.Inf-1), s, t).Rows {
		for _, e := range row {
			want[i][e.Col] = min(want[i][e.Col], e.Val)
		}
	}
	return want
}

// checkFold folds S·T into copies of table at every worker count and
// compares each with foldRef.
func checkFold(t *testing.T, name string, table [][]int64, s, tm *matrix.Mat[int64]) {
	t.Helper()
	want := foldRef(table, s, tm)
	for _, workers := range []int{1, 2, 4, 0} {
		got := make([][]int64, len(table))
		for i, row := range table {
			got[i] = slices.Clone(row)
		}
		FoldMinPlus(got, s, func(v int64) int64 { return v }, tm, workers)
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s workers=%d: row %d = %v, want %v", name, workers, i, got[i], want[i])
			}
		}
	}
}

// restTable is an n×n table at rest: Inf everywhere, 0 on the diagonal.
func restTable(n int) [][]int64 {
	table := make([][]int64, n)
	for i := range table {
		table[i] = make([]int64, n)
		for j := range table[i] {
			table[i][j] = semiring.Inf
		}
		table[i][i] = 0
	}
	return table
}

// TestFoldMinPlus: the fold against MulRef plus a cell-wise min, on random
// matrices spanning several kernel blocks and on hand-built ones - empty
// rows on both sides, operands at and next to semiring.Inf (their products
// saturate and must never land), and a table that already beats every
// product (nothing may move).
func TestFoldMinPlus(t *testing.T) {
	for _, n := range []int{5, 3*kernelBlock + 7} {
		for seed := int64(0); seed < 3; seed++ {
			s, tm := randMinPlusMat(n, 1+int(seed)*3, seed), randMinPlusMat(n, 4, seed+10)
			table := restTable(n)
			rng := rand.New(rand.NewSource(seed))
			for c := 0; c < n*2; c++ { // some cells already hold an estimate
				table[rng.Intn(n)][rng.Intn(n)] = rng.Int63n(40)
			}
			checkFold(t, fmt.Sprintf("random n=%d seed=%d", n, seed), table, s, tm)
		}
	}

	sr := semiring.NewMinPlus(semiring.Inf - 1)
	s, tm := matrix.New[int64](4), matrix.New[int64](4)
	s.Set(sr, 0, 1, 3)
	s.Set(sr, 0, 2, semiring.Inf-2) // finite alone, saturates in any sum
	s.Set(sr, 3, 1, 1)              // rows 1 and 2 of S stay empty
	tm.Set(sr, 1, 0, 4)
	tm.Set(sr, 1, 3, 2)
	tm.Set(sr, 2, 3, 5) // row 0 of T stays empty; row 3 too
	// Entries at Inf itself are not stored by any producer, but a plane
	// cell at rest read as an operand looks like one: it must not win.
	s.Rows[2] = matrix.Row[int64]{{Col: 1, Val: semiring.Inf}}
	tm.Rows[3] = matrix.Row[int64]{{Col: 2, Val: semiring.Inf}}
	checkFold(t, "hand-built", restTable(4), s, tm)

	beaten := restTable(4)
	for i := range beaten {
		for j := range beaten[i] {
			beaten[i][j] = 0
		}
	}
	checkFold(t, "table beats every product", beaten, s, tm)
	for i, row := range foldRef(beaten, s, tm) {
		if !slices.Equal(row, beaten[i]) {
			t.Fatalf("the reference itself moved row %d of an all-zero table: %v", i, row)
		}
	}
}

// randMinPlusMat is a random n×n matrix with about perRow entries a row,
// weights 1..30; every third row is empty.
func randMinPlusMat(n, perRow int, seed int64) *matrix.Mat[int64] {
	rng := rand.New(rand.NewSource(seed))
	sr := semiring.NewMinPlus(semiring.Inf - 1)
	m := matrix.New[int64](n)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			continue
		}
		for c := 0; c < perRow; c++ {
			m.Set(sr, i, rng.Intn(n), rng.Int63n(30)+1)
		}
	}
	return m
}

// cloneRows copies m's entries out of whatever backs them.
func cloneRows[E any](m *matrix.Mat[E]) []matrix.Row[E] {
	out := make([]matrix.Row[E], m.N)
	for i, r := range m.Rows {
		out[i] = slices.Clone(r)
	}
	return out
}

func sameRows[E comparable](m *matrix.Mat[E], rows []matrix.Row[E]) bool {
	for i, r := range m.Rows {
		if !slices.Equal(r, rows[i]) {
			return false
		}
	}
	return true
}

// TestFilteredSlabLifetime pins who may still read which output of a
// shared Filtered: product t's matrix is intact after product t+1 and is
// the very matrix product t+2 writes (dead from then on); the first
// iterate FilterCols wrote obeys the same rule; and every row ends at its
// own capacity, so an append to one cannot reach the next. Run under
// -race: the rows of one pass are written by several workers.
func TestFilteredSlabLifetime(t *testing.T) {
	sr := semiring.AugMinPlus{MaxW: 1 << 30, MaxH: 1 << 20}
	n, rho := 3*kernelBlock+5, 6
	w := randWHMat(n, 4, 7)
	for _, workers := range []int{1, 2, 4, 0} {
		f := NewFiltered[semiring.WH](sr, n, rho, workers)
		first := f.FilterCols(w, nil)
		firstRows := cloneRows(first)
		p1 := f.Mul(first, first)
		if !sameRows(first, firstRows) {
			t.Fatalf("workers=%d: the first product wrote into its own operand", workers)
		}
		p1Rows := cloneRows(p1)
		if want := KernelMulFilteredGeneric[semiring.WH](sr, first, first, rho, 1); !sameRows(want, p1Rows) {
			t.Fatalf("workers=%d: first shared product differs from the one-shot reference", workers)
		}
		p2 := f.Mul(p1, p1)
		if p2 != first {
			t.Errorf("workers=%d: product 2 did not write over the first iterate", workers)
		}
		if !sameRows(p1, p1Rows) {
			t.Fatalf("workers=%d: product 1 changed while product 2 was written", workers)
		}
		p1m := &matrix.Mat[semiring.WH]{N: n, Rows: p1Rows}
		if want := KernelMulFilteredGeneric[semiring.WH](sr, p1m, p1m, rho, 1); !sameRows(p2, cloneRows(want)) {
			t.Fatalf("workers=%d: second shared product differs from the one-shot reference", workers)
		}
		if p3 := f.Mul(p2, p2); p3 != p1 {
			t.Errorf("workers=%d: product 3 did not overwrite product 1", workers)
		}

		for i := 0; i+1 < n; i++ {
			if len(p2.Rows[i]) == 0 {
				continue
			}
			if cap(p2.Rows[i]) != len(p2.Rows[i]) {
				t.Fatalf("workers=%d: row %d has capacity %d past its %d entries", workers, i, cap(p2.Rows[i]), len(p2.Rows[i]))
			}
			next := slices.Clone(p2.Rows[i+1])
			_ = append(p2.Rows[i], matrix.Entry[semiring.WH]{Col: -7})
			if !slices.Equal(p2.Rows[i+1], next) {
				t.Fatalf("workers=%d: an append to row %d reached row %d", workers, i, i+1)
			}
		}
	}
}

// TestFilteredRecycled: a Filtered given back with Release and taken over
// by the next NewFiltered of its shape works exactly like a fresh one. One
// instance goes round through ρ ∈ {n, 3, 1, 0, 3, n}, each step a first
// iterate over two columns and then over all of them, for both row kernels
// at workers {1, 2, 4, 0}. At every step it runs FilterCols, a squaring
// and a product with w next to a fresh instance, and each output must equal
// the fresh one's (matrix.Equal), sit in the same windows - the width the
// last user narrowed does not stay narrowed - and keep its rows
// capacity-clipped; a ρ = 0 product written over a recycled header holds
// none of the last user's rows. Only the instance under test is ever
// released here, so while it is taken the pool is empty and the reference
// is fresh. A kernel that does not match is not taken over; a worker count
// that does not match is: an instance released at workers 4 is taken over
// at 1 and one released at 1 at 4, and the taker runs at its own count.
// Run under -race: the rows of one pass are written by several workers.
func TestFilteredRecycled(t *testing.T) {
	sr := semiring.AugMinPlus{MaxW: 1 << 30, MaxH: 1 << 20}
	n := 3*kernelBlock + 5
	w := randWHMat(n, 4, 11)
	narrow := make([]bool, n)
	narrow[1], narrow[n/2] = true, true
	var last *Filtered[semiring.WH]
	// check runs f next to a fresh instance through rho and cols and
	// releases f.
	check := func(f *Filtered[semiring.WH], wh bool, workers, rho int, cols []bool) {
		t.Helper()
		if f.wh() != wh || f.workers != kernelWorkers(workers, n) {
			t.Fatalf("wh=%v workers=%d: took over a Filtered of another kernel, or kept another worker count", wh, workers)
		}
		fresh := newFiltered[semiring.WH](sr, n, rho, workers, wh)
		step := fmt.Sprintf("wh=%v workers=%d rho=%d narrow=%v", wh, workers, rho, cols != nil)
		same := func(what string, got, want *matrix.Mat[semiring.WH]) {
			t.Helper()
			if !matrix.Equal[semiring.WH](sr, got, want) {
				t.Fatalf("%s: %s on a recycled Filtered differs from a fresh one's", step, what)
			}
			if f.width != fresh.width || !slices.Equal(f.off, fresh.off) {
				t.Fatalf("%s: %s laid out in windows of width %d, a fresh one's are %d wide", step, what, f.width, fresh.width)
			}
			for i, row := range got.Rows {
				if cap(row) != len(row) {
					t.Fatalf("%s: %s row %d has capacity %d past its %d entries", step, what, i, cap(row), len(row))
				}
			}
		}
		first, wantFirst := f.FilterCols(w, cols), fresh.FilterCols(w, cols)
		same("FilterCols", first, wantFirst)
		sq, wantSq := f.Mul(first, first), fresh.Mul(wantFirst, wantFirst)
		same("first·first", sq, wantSq)
		same("w·sq", f.Mul(w, sq), fresh.Mul(w, wantSq))
		f.Release()
		last = f
	}
	for _, wh := range []bool{true, false} {
		for _, workers := range []int{1, 2, 4, 0} {
			reused := 0
			for _, rho := range []int{n, 3, 1, 0, 3, n} {
				for _, cols := range [][]bool{narrow, nil} {
					f := newFiltered[semiring.WH](sr, n, rho, workers, wh)
					if f == last {
						reused++
					}
					check(f, wh, workers, rho, cols)
				}
			}
			if reused == 0 {
				t.Errorf("wh=%v workers=%d: no NewFiltered took over the released instance", wh, workers)
			}
		}
		// Across worker counts. The pool may miss a Put (under -race it
		// drops a share of them), so each hand-over gets a few tries.
		for _, counts := range [][2]int{{4, 1}, {1, 4}} {
			taken := false
			for try := 0; try < 20 && !taken; try++ {
				check(newFiltered[semiring.WH](sr, n, 3, counts[0], wh), wh, counts[0], 3, nil)
				released := last
				f := newFiltered[semiring.WH](sr, n, 3, counts[1], wh)
				taken = f == released
				check(f, wh, counts[1], 3, nil)
			}
			if !taken {
				t.Errorf("wh=%v: no NewFiltered at workers %d took over an instance released at %d", wh, counts[1], counts[0])
			}
		}
	}
}

// TestFilteredRowOutgrowsWindow: windows narrower than what the rows need
// cost an allocation, not an entry - the row leaves the slab and the
// product stays the reference's. FilterCols over two columns narrows the
// windows to two entries; the product after it fills ρ = 5.
func TestFilteredRowOutgrowsWindow(t *testing.T) {
	sr := semiring.AugMinPlus{MaxW: 1 << 30, MaxH: 1 << 20}
	n, rho := 40, 5
	w := randWHMat(n, 4, 3)
	want := matrix.Filter[semiring.WH](sr, matrix.MulRef[semiring.WH](sr, w, w), rho)
	f := NewFiltered[semiring.WH](sr, n, rho, 1)
	cols := make([]bool, n)
	cols[0], cols[1] = true, true
	f.FilterCols(w, cols)
	if f.width != 2 {
		t.Fatalf("width = %d after FilterCols kept 2 columns, want 2", f.width)
	}
	if got := f.Mul(w, w); !sameRows(got, cloneRows(want)) {
		t.Error("a product through too narrow a slab differs from Filter ∘ MulRef")
	}
}

// TestFilteredWindowsFollowProducts: a row's window is no wider than the
// row's products, so a sparse product under a filter that keeps everything
// (ρ = n) allocates for the entries it can produce - one per product at
// most - and not n·ρ of them (6 MiB at n = 512).
func TestFilteredWindowsFollowProducts(t *testing.T) {
	sr := semiring.AugMinPlus{MaxW: 1 << 30, MaxH: 1 << 20}
	const n = 512
	w := randWHMat(n, 4, 5)
	products := 0
	for _, row := range w.Rows {
		for _, e := range row {
			products += len(w.Rows[e.Col])
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := KernelMulFilteredWH(sr, w, w, n, 1)
	runtime.ReadMemStats(&after)
	// The slab, n row headers and window offsets, one worker's scratch.
	if bytes, budget := after.TotalAlloc-before.TotalAlloc, uint64(24*products+(24+8+96)*n+4<<10); bytes > budget {
		t.Errorf("w·w at ρ = n allocates %d bytes for %d products, want <= %d", bytes, products, budget)
	}
	if want := matrix.MulRef[semiring.WH](sr, w, w); !sameRows(got, want.Rows) {
		t.Error("the product differs from MulRef")
	}
}

// randWHMat is a random n×n augmented matrix (not symmetric) with a
// diagonal and about perRow more entries a row; weights tie often.
func randWHMat(n, perRow int, seed int64) *matrix.Mat[semiring.WH] {
	rng := rand.New(rand.NewSource(seed))
	sr := semiring.AugMinPlus{MaxW: 1 << 30, MaxH: 1 << 20}
	m := matrix.New[semiring.WH](n)
	for i := 0; i < n; i++ {
		m.Set(sr, i, i, semiring.WH{})
		for c := 0; c < perRow; c++ {
			if j := rng.Intn(n); j != i {
				m.Set(sr, i, j, semiring.WH{W: rng.Int63n(6) + 1, H: 1})
			}
		}
	}
	return m
}
