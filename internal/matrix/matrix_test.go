package matrix

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/congestedclique/ccsp/internal/semiring"
)

func randMinPlus(n, perRow int, seed int64) *Mat[int64] {
	sr := semiring.NewMinPlus(1 << 30)
	rng := rand.New(rand.NewSource(seed))
	m := New[int64](n)
	for i, cols := range RandomSupport(n, perRow, seed) {
		row := make(Row[int64], 0, len(cols))
		for _, c := range cols {
			row = append(row, Entry[int64]{Col: c, Val: int64(rng.Intn(100) + 1)})
		}
		m.Rows[i] = SortRow(row)
	}
	if err := m.Check(sr); err != nil {
		panic(err)
	}
	return m
}

func TestSetGet(t *testing.T) {
	sr := semiring.NewMinPlus(1000)
	m := New[int64](5)
	m.Set(sr, 1, 3, 7)
	m.Set(sr, 1, 0, 2)
	m.Set(sr, 1, 4, 9)
	if got := m.Get(sr, 1, 3); got != 7 {
		t.Errorf("Get(1,3)=%d, want 7", got)
	}
	if got := m.Get(sr, 1, 2); !sr.IsZero(got) {
		t.Errorf("Get(1,2)=%d, want zero", got)
	}
	m.Set(sr, 1, 3, 5) // overwrite
	if got := m.Get(sr, 1, 3); got != 5 {
		t.Errorf("after overwrite Get(1,3)=%d, want 5", got)
	}
	m.Set(sr, 1, 3, sr.Zero()) // delete
	if got := m.Get(sr, 1, 3); !sr.IsZero(got) {
		t.Errorf("after delete Get(1,3)=%d, want zero", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ=%d, want 2", m.NNZ())
	}
	if err := m.Check(sr); err != nil {
		t.Fatal(err)
	}
}

func TestDensity(t *testing.T) {
	sr := semiring.NewMinPlus(1000)
	m := New[int64](4)
	if m.Density() != 1 {
		t.Errorf("empty density=%d, want 1", m.Density())
	}
	for j := 0; j < 3; j++ {
		m.Set(sr, 0, j, 1)
	}
	// nnz=3, n=4 => ceil(3/4)=1
	if m.Density() != 1 {
		t.Errorf("density=%d, want 1", m.Density())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(sr, i, j, 1)
		}
	}
	if m.Density() != 4 {
		t.Errorf("dense density=%d, want 4", m.Density())
	}
}

func TestTransposeInvolution(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 30)
	m := randMinPlus(20, 5, 1)
	tt := m.Transpose().Transpose()
	if !Equal[int64](sr, m, tt) {
		t.Error("transpose twice is not identity")
	}
	tr := m.Transpose()
	if err := tr.Check(sr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N; i++ {
		for _, e := range m.Rows[i] {
			if got := tr.Get(sr, int(e.Col), i); got != e.Val {
				t.Fatalf("transpose mismatch at (%d,%d)", i, e.Col)
			}
		}
	}
}

func TestMulRefIdentity(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 30)
	m := randMinPlus(16, 4, 2)
	id := Identity[int64](sr, 16)
	if p := MulRef[int64](sr, m, id); !Equal[int64](sr, p, m) {
		t.Error("M * I != M")
	}
	if p := MulRef[int64](sr, id, m); !Equal[int64](sr, p, m) {
		t.Error("I * M != M")
	}
}

func TestMulRefAgainstBruteForce(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 30)
	a := randMinPlus(12, 4, 3)
	b := randMinPlus(12, 4, 4)
	p := MulRef[int64](sr, a, b)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			want := sr.Zero()
			for k := 0; k < 12; k++ {
				want = sr.Add(want, sr.Mul(a.Get(sr, i, k), b.Get(sr, k, j)))
			}
			if got := p.Get(sr, i, j); !sr.Eq(got, want) {
				t.Fatalf("P[%d,%d]=%d, want %d", i, j, got, want)
			}
		}
	}
}

func TestMulRefArithCancellation(t *testing.T) {
	// Over the standard ring, cancellations must not leave explicit zeros.
	sr := semiring.Arith{}
	a := New[int64](2)
	a.Set(sr, 0, 0, 1)
	a.Set(sr, 0, 1, 1)
	b := New[int64](2)
	b.Set(sr, 0, 0, 5)
	b.Set(sr, 1, 0, -5)
	p := MulRef[int64](sr, a, b)
	if p.NNZ() != 0 {
		t.Errorf("cancelled product has %d entries, want 0", p.NNZ())
	}
	if err := p.Check(sr); err != nil {
		t.Fatal(err)
	}
}

func TestSupportDensityIgnoresCancellation(t *testing.T) {
	sr := semiring.Arith{}
	a := New[int64](2)
	a.Set(sr, 0, 0, 1)
	a.Set(sr, 0, 1, 1)
	b := New[int64](2)
	b.Set(sr, 0, 0, 5)
	b.Set(sr, 1, 0, -5)
	// The Boolean support product has entry (0,0) even though the ring
	// product cancels: ρ̂ counts it (§2.1).
	if got := SupportDensity[int64](a, b); got != 1 {
		t.Errorf("SupportDensity=%d, want 1", got)
	}
}

func TestSupportDensityMatchesMinPlusDensity(t *testing.T) {
	// Over min-plus there are no cancellations, so ρ̂_ST = ρ_P (§2.1).
	sr := semiring.NewMinPlus(1 << 30)
	for seed := int64(0); seed < 5; seed++ {
		a := randMinPlus(24, 3, seed*2+10)
		b := randMinPlus(24, 3, seed*2+11)
		p := MulRef[int64](sr, a, b)
		if got, want := SupportDensity[int64](a, b), p.Density(); got != want {
			t.Errorf("seed %d: SupportDensity=%d, product density=%d", seed, got, want)
		}
	}
}

func TestFilterRowKeepsSmallest(t *testing.T) {
	sr := semiring.NewMinPlus(1000)
	r := Row[int64]{{0, 50}, {1, 10}, {2, 30}, {3, 10}, {4, 20}}
	f := FilterRow[int64](sr, r, 3)
	if len(f) != 3 {
		t.Fatalf("filtered size %d, want 3", len(f))
	}
	// Smallest three by (value, col): (1,10), (3,10), (4,20).
	want := map[int32]int64{1: 10, 3: 10, 4: 20}
	for _, e := range f {
		if want[e.Col] != e.Val {
			t.Errorf("unexpected kept entry (%d,%d)", e.Col, e.Val)
		}
		delete(want, e.Col)
	}
	if len(want) != 0 {
		t.Errorf("missing entries: %v", want)
	}
}

func TestFilterProperties(t *testing.T) {
	// Property check of the §2.2 filtered-matrix definition.
	sr := semiring.NewMinPlus(1 << 30)
	prop := func(seed int64, rhoRaw uint8) bool {
		rho := int(rhoRaw)%8 + 1
		m := randMinPlus(16, 6, seed)
		f := Filter[int64](sr, m, rho)
		for i := 0; i < m.N; i++ {
			orig, filt := m.Rows[i], f.Rows[i]
			// (2) row sizes
			wantLen := len(orig)
			if wantLen > rho {
				wantLen = rho
			}
			if len(filt) != wantLen {
				return false
			}
			// (1) values preserved
			for _, e := range filt {
				if m.Get(sr, i, int(e.Col)) != e.Val {
					return false
				}
			}
			// (3) every dropped entry is >= every kept entry
			maxKept := int64(-1)
			for _, e := range filt {
				if e.Val > maxKept {
					maxKept = e.Val
				}
			}
			kept := make(map[int32]struct{}, len(filt))
			for _, e := range filt {
				kept[e.Col] = struct{}{}
			}
			for _, e := range orig {
				if _, ok := kept[e.Col]; !ok && e.Val < maxKept {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	sr := semiring.NewMinPlus(1000)
	m := New[int64](3)
	m.Rows[0] = Row[int64]{{Col: 2, Val: 1}, {Col: 1, Val: 1}} // unsorted
	if err := m.Check(sr); err == nil {
		t.Error("want error for unsorted row")
	}
	m.Rows[0] = Row[int64]{{Col: 5, Val: 1}} // out of range
	if err := m.Check(sr); err == nil {
		t.Error("want error for out-of-range column")
	}
	m.Rows[0] = Row[int64]{{Col: 1, Val: semiring.Inf}} // explicit zero
	if err := m.Check(sr); err == nil {
		t.Error("want error for explicit zero")
	}
}

func TestRandomSupportShape(t *testing.T) {
	rows := RandomSupport(10, 3, 7)
	if len(rows) != 10 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i, r := range rows {
		if len(r) != 3 {
			t.Errorf("row %d has %d cols, want 3", i, len(r))
		}
		seen := map[int32]bool{}
		for _, c := range r {
			if c < 0 || c >= 10 || seen[c] {
				t.Errorf("row %d invalid col %d", i, c)
			}
			seen[c] = true
		}
	}
}

// filterRowRef is the sort-based FilterRow this package shipped before the
// typed selection: order an index permutation by (Rank, column), keep the
// first rho, re-sort by column. Kept as the reference FilterRow is pinned
// against.
func filterRowRef[E any](sr semiring.Ordered[E], r Row[E], rho int) Row[E] {
	if len(r) <= rho {
		return r
	}
	idx := make([]int, len(r))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := sr.Rank(r[idx[a]].Val), sr.Rank(r[idx[b]].Val)
		if ra != rb {
			return ra < rb
		}
		return r[idx[a]].Col < r[idx[b]].Col
	})
	out := make(Row[E], 0, rho)
	for _, i := range idx[:rho] {
		out = append(out, r[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Col < out[b].Col })
	return out
}

// TestFilterRowMatchesReference pins the selection-based FilterRow to the
// old sort-based body entry for entry: rank ties broken by column, every
// boundary ρ, input row untouched, result column-sorted. Rows draw weights
// from a handful of values so that most cutoffs land inside a run of equal
// ranks; the fixed shapes are the classic bad inputs of a quickselect.
func TestFilterRowMatchesReference(t *testing.T) {
	sr := semiring.NewAugMinPlus(1<<20, 64)
	check := func(r Row[semiring.WH]) bool {
		n := len(r)
		for _, rho := range []int{0, 1, n - 1, n, n + 1, n / 2, n/2 + 1} {
			if rho < 0 {
				continue
			}
			in := append(Row[semiring.WH](nil), r...)
			got, want := FilterRow[semiring.WH](sr, in, rho), filterRowRef[semiring.WH](sr, r, rho)
			if !slices.Equal(in, r) {
				t.Logf("len=%d rho=%d: input row modified", n, rho)
				return false
			}
			if !slices.Equal(got, want) {
				t.Logf("len=%d rho=%d:\n got %v\nwant %v", n, rho, got, want)
				return false
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].Col >= got[i].Col {
					t.Logf("len=%d rho=%d: result not column-sorted at %d", n, rho, i)
					return false
				}
			}
		}
		return true
	}
	prop := func(seed int64, lenRaw, spreadRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n, spread := int(lenRaw)%96, int64(spreadRaw)%5+1
		r := make(Row[semiring.WH], 0, n)
		col := int32(0)
		for i := 0; i < n; i++ {
			col += int32(rng.Intn(3)) + 1
			r = append(r, Entry[semiring.WH]{Col: col, Val: semiring.WH{W: rng.Int63n(spread), H: rng.Int63n(spread)}})
		}
		return check(r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	shapes := map[string]func(i, n int) int64{
		"ascending":  func(i, n int) int64 { return int64(i) },
		"descending": func(i, n int) int64 { return int64(n - i) },
		"constant":   func(i, n int) int64 { return 7 },
		"organ-pipe": func(i, n int) int64 { return int64(min(i, n-i)) },
		"two-values": func(i, n int) int64 { return int64(i % 2) },
	}
	for name, f := range shapes {
		for _, n := range []int{1, 2, 3, 64, 65} {
			r := make(Row[semiring.WH], n)
			for i := range r {
				r[i] = Entry[semiring.WH]{Col: int32(i), Val: semiring.WH{W: f(i, n), H: 1}}
			}
			if !check(r) {
				t.Errorf("%s n=%d: FilterRow differs from the sort-based reference", name, n)
			}
		}
	}
}

// TestMergeRows: merging rows in column order in one pass gives what
// concatenating, sorting and summing duplicate columns gives - the same
// rows shuffled, or more than four of them, take that path - over the
// routed semiring, whose sum of tied (W, H) keeps the least witness; rows
// with no entry merge to nil.
func TestMergeRows(t *testing.T) {
	sr := semiring.NewRoutedMinPlus(100, 100)
	rng := rand.New(rand.NewSource(9))
	row := func() Row[semiring.WHF] {
		var r Row[semiring.WHF]
		for c := int32(0); c < 24; c++ {
			if rng.Intn(3) == 0 {
				r = append(r, Entry[semiring.WHF]{Col: c, Val: semiring.WHF{W: rng.Int63n(3), H: rng.Int63n(2), FH: rng.Int31n(5)}})
			}
		}
		return r
	}
	want := func(rows []Row[semiring.WHF]) Row[semiring.WHF] {
		sum := map[int32]semiring.WHF{}
		for _, r := range rows {
			for _, e := range r {
				if v, ok := sum[e.Col]; ok {
					sum[e.Col] = sr.Add(v, e.Val)
				} else {
					sum[e.Col] = e.Val
				}
			}
		}
		var out Row[semiring.WHF]
		for c := int32(0); c < 24; c++ {
			if v, ok := sum[c]; ok {
				out = append(out, Entry[semiring.WHF]{Col: c, Val: v})
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		rows := make([]Row[semiring.WHF], 1+trial%6)
		for i := range rows {
			rows[i] = row()
		}
		if got, w := MergeRows(sr, rows...), want(rows); !slices.Equal(got, w) {
			t.Fatalf("%d sorted rows merge to %v, want %v", len(rows), got, w)
		}
		shuffled := make([]Row[semiring.WHF], len(rows))
		for i, r := range rows {
			shuffled[i] = slices.Clone(r)
			rng.Shuffle(len(r), func(a, b int) { shuffled[i][a], shuffled[i][b] = shuffled[i][b], shuffled[i][a] })
		}
		if got, w := MergeRows(sr, shuffled...), want(rows); !slices.Equal(got, w) {
			t.Fatalf("%d shuffled rows merge to %v, want %v", len(rows), got, w)
		}
	}
	if got := MergeRows(sr, nil, Row[semiring.WHF]{}); got != nil {
		t.Errorf("empty rows merge to %v, want nil", got)
	}
}

// Density returns ρ_M: the smallest positive integer with nz(M) ≤ ρ·n
// (§2.1).
func (m *Mat[E]) Density() int {
	nnz := m.NNZ()
	rho := (nnz + m.N - 1) / m.N
	if rho < 1 {
		rho = 1
	}
	return rho
}
