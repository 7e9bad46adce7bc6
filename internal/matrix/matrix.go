// Package matrix provides the row-sparse matrix representation the paper's
// distributed matrix multiplication operates on (§2): n×n matrices over a
// semiring, held row-wise (node v holds row v), with the density notions ρ
// and ρ̂ of §2.1 and the ρ-filtering of §2.2. The sequential products here
// serve as reference implementations that the distributed algorithms are
// verified against.
package matrix

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/congestedclique/ccsp/internal/semiring"
)

// Entry is a non-zero entry within a row.
type Entry[E any] struct {
	Col int32
	Val E
}

// Row is a sparse matrix row: entries with non-zero values, sorted by
// column, at most one entry per column.
type Row[E any] []Entry[E]

// Mat is an n×n row-sparse matrix. Rows[i] is row i. The zero value of a
// row (nil) is an all-zero row.
type Mat[E any] struct {
	N    int
	Rows []Row[E]
}

// New returns an all-zero n×n matrix.
func New[E any](n int) *Mat[E] {
	return &Mat[E]{N: n, Rows: make([]Row[E], n)}
}

// Identity returns the n×n semiring identity matrix.
func Identity[E any](sr semiring.Semiring[E], n int) *Mat[E] {
	m := New[E](n)
	for i := 0; i < n; i++ {
		m.Rows[i] = Row[E]{{Col: int32(i), Val: sr.One()}}
	}
	return m
}

// Set sets entry (i, j); setting a semiring zero removes the entry.
func (m *Mat[E]) Set(sr semiring.Semiring[E], i, j int, v E) {
	row := m.Rows[i]
	k := sort.Search(len(row), func(t int) bool { return row[t].Col >= int32(j) })
	switch {
	case k < len(row) && row[k].Col == int32(j):
		if sr.IsZero(v) {
			m.Rows[i] = append(row[:k], row[k+1:]...)
		} else {
			row[k].Val = v
		}
	case sr.IsZero(v):
		// nothing to do
	default:
		row = append(row, Entry[E]{})
		copy(row[k+1:], row[k:])
		row[k] = Entry[E]{Col: int32(j), Val: v}
		m.Rows[i] = row
	}
}

// Get returns entry (i, j), or the semiring zero if absent.
func (m *Mat[E]) Get(sr semiring.Semiring[E], i, j int) E {
	row := m.Rows[i]
	k := sort.Search(len(row), func(t int) bool { return row[t].Col >= int32(j) })
	if k < len(row) && row[k].Col == int32(j) {
		return row[k].Val
	}
	return sr.Zero()
}

// NNZ returns the number of stored entries.
func (m *Mat[E]) NNZ() int {
	total := 0
	for _, r := range m.Rows {
		total += len(r)
	}
	return total
}

// Clone returns a deep copy.
func (m *Mat[E]) Clone() *Mat[E] {
	c := New[E](m.N)
	for i, r := range m.Rows {
		c.Rows[i] = append(Row[E](nil), r...)
	}
	return c
}

// Transpose returns the transposed matrix (a sequential helper used by
// reference computations and tests; the distributed algorithms transpose
// via routing).
func (m *Mat[E]) Transpose() *Mat[E] {
	t := New[E](m.N)
	counts := make([]int, m.N)
	for _, r := range m.Rows {
		for _, e := range r {
			counts[e.Col]++
		}
	}
	for j, c := range counts {
		t.Rows[j] = make(Row[E], 0, c)
	}
	for i, r := range m.Rows {
		for _, e := range r {
			t.Rows[e.Col] = append(t.Rows[e.Col], Entry[E]{Col: int32(i), Val: e.Val})
		}
	}
	return t
}

// Equal reports whether a and b are equal entry-wise under sr.
func Equal[E any](sr semiring.Semiring[E], a, b *Mat[E]) bool {
	if a.N != b.N {
		return false
	}
	for i := 0; i < a.N; i++ {
		ra, rb := a.Rows[i], b.Rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for k := range ra {
			if ra[k].Col != rb[k].Col || !sr.Eq(ra[k].Val, rb[k].Val) {
				return false
			}
		}
	}
	return true
}

// Check validates the representation invariants (sorted columns, no
// duplicates, no explicit zeros, columns in range).
func (m *Mat[E]) Check(sr semiring.Semiring[E]) error {
	if len(m.Rows) != m.N {
		return fmt.Errorf("matrix: %d rows for N=%d", len(m.Rows), m.N)
	}
	for i, r := range m.Rows {
		for k, e := range r {
			if e.Col < 0 || int(e.Col) >= m.N {
				return fmt.Errorf("matrix: row %d has out-of-range column %d", i, e.Col)
			}
			if k > 0 && r[k-1].Col >= e.Col {
				return fmt.Errorf("matrix: row %d not strictly sorted at position %d", i, k)
			}
			if sr.IsZero(e.Val) {
				return fmt.Errorf("matrix: row %d stores an explicit zero at column %d", i, e.Col)
			}
		}
	}
	return nil
}

// SortRow sorts a row built by appends by column, in place. It does not
// merge or reject duplicate columns: callers either append each column at
// most once or combine duplicates afterwards (Combine).
func SortRow[E any](r Row[E]) Row[E] {
	slices.SortFunc(r, byCol[E])
	return r
}

// Combine is MergeRows of the one row r computed in r's own storage: r
// sorted by column, each column's entries folded into one by semiring
// addition, and the combined prefix of r returned (nil when r is empty).
func Combine[E any](sr semiring.Semiring[E], r Row[E]) Row[E] {
	if len(r) == 0 {
		return nil
	}
	SortRow(r)
	out := r[:1]
	for _, e := range r[1:] {
		if last := &out[len(out)-1]; last.Col == e.Col {
			last.Val = sr.Add(last.Val, e.Val)
		} else {
			out = append(out, e)
		}
	}
	return out
}

// MergeRows combines rows by semiring addition on overlapping columns
// (for min-plus: the lightest entry wins), e.g. to form a row of G ∪ H
// from graph and hopset rows. Up to four rows already in column order -
// rows of matrices, as every merge of G ∪ H has them - are merged in one
// pass; any others are concatenated and sorted. Addition is commutative,
// so the result is the same either way. Rows with no entry merge to nil.
func MergeRows[E any](sr semiring.Semiring[E], rows ...Row[E]) Row[E] {
	total, sorted := 0, len(rows) <= 4
	for _, r := range rows {
		total += len(r)
		sorted = sorted && slices.IsSortedFunc(r, byCol[E])
	}
	if total == 0 {
		return nil
	}
	out := make(Row[E], 0, total)
	if !sorted {
		for _, r := range rows {
			out = append(out, r...)
		}
		return Combine(sr, out)
	}
	add := func(e Entry[E]) {
		if n := len(out); n > 0 && out[n-1].Col == e.Col {
			out[n-1].Val = sr.Add(out[n-1].Val, e.Val)
			return
		}
		out = append(out, e)
	}
	var next [4]int
	for {
		best := -1
		for i, r := range rows {
			if next[i] < len(r) && (best < 0 || r[next[i]].Col < rows[best][next[best]].Col) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		add(rows[best][next[best]])
		next[best]++
	}
}

func byCol[E any](a, b Entry[E]) int { return cmp.Compare(a.Col, b.Col) }
