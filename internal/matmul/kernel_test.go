package matmul

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
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
	for _, n := range []int{5, 3*pool.RowBlock + 7} {
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
