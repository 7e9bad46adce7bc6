package matrix

import (
	"math/rand"

	"github.com/congestedclique/ccsp/internal/semiring"
)

// MulRef computes the product P = S·T over sr sequentially. It is the
// reference implementation the distributed algorithms of §2 are verified
// against.
func MulRef[E any](sr semiring.Semiring[E], s, t *Mat[E]) *Mat[E] {
	n := s.N
	p := New[E](n)
	acc := make([]E, n)
	hit := make([]bool, n)
	touched := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		touched = touched[:0]
		for _, es := range s.Rows[i] {
			trow := t.Rows[es.Col]
			for _, et := range trow {
				prod := sr.Mul(es.Val, et.Val)
				if hit[et.Col] {
					acc[et.Col] = sr.Add(acc[et.Col], prod)
				} else {
					hit[et.Col] = true
					acc[et.Col] = prod
					touched = append(touched, et.Col)
				}
			}
		}
		row := make(Row[E], 0, len(touched))
		for _, j := range touched {
			if !sr.IsZero(acc[j]) {
				row = append(row, Entry[E]{Col: j, Val: acc[j]})
			}
			hit[j] = false
		}
		p.Rows[i] = SortRow(row)
	}
	return p
}

// SupportDensity computes ρ̂_ST of §2.1: the density of the Boolean product
// of the supports of S and T, ignoring cancellations. It is what the
// known-density variant of Theorem 8 assumes known.
func SupportDensity[E any](s, t *Mat[E]) int {
	n := s.N
	words := (n + 63) / 64
	tbits := make([][]uint64, n)
	for k := 0; k < n; k++ {
		bits := make([]uint64, words)
		for _, e := range t.Rows[k] {
			bits[e.Col>>6] |= 1 << (uint(e.Col) & 63)
		}
		tbits[k] = bits
	}
	rowBits := make([]uint64, words)
	nnz := 0
	for i := 0; i < n; i++ {
		for w := range rowBits {
			rowBits[w] = 0
		}
		for _, es := range s.Rows[i] {
			for w, b := range tbits[es.Col] {
				rowBits[w] |= b
			}
		}
		for _, w := range rowBits {
			nnz += popcount(w)
		}
	}
	rho := (nnz + n - 1) / n
	if rho < 1 {
		rho = 1
	}
	return rho
}

func popcount(x uint64) int {
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}

// FilterRow returns the ρ-filtered version of a row per §2.2: the ρ
// smallest entries under the order (Rank(value), column). The input row is
// not modified; a row that already fits is returned as is.
func FilterRow[E any](sr semiring.Ordered[E], r Row[E], rho int) Row[E] {
	if len(r) <= rho {
		return r
	}
	var ranks []int64 // sized by r's capacity below: clip it to the row
	return FilterRowAppend(sr, make(Row[E], 0, max(rho, 0)), r[:len(r):len(r)], rho, &ranks)
}

// FilterRowAppend appends the ρ-filtered version of r to dst and returns
// it. That is what a Lemma 15 cutoff keeps: every entry ranked below the
// ρ-th smallest rank, then the lowest-column entries of exactly that rank
// up to ρ in total. The cutoff rank is selected, not sorted for, and one
// pass over r - column-sorted by the Row invariant - emits the kept
// entries in order. dst may be r[:0], which filters r in place: the write
// position never passes the read position. ranks is the caller's scratch,
// grown here to r's capacity, so a kernel worker filtering many rows out
// of one buffer allocates it once.
func FilterRowAppend[E any](sr semiring.Ordered[E], dst, r Row[E], rho int, ranks *[]int64) Row[E] {
	m := len(r)
	if m <= rho {
		return append(dst, r...)
	}
	if rho < 1 {
		return dst
	}
	if cap(*ranks) < 2*m {
		*ranks = make([]int64, 2*cap(r)) // a reused row buffer's longest row
	}
	rank, sel := (*ranks)[:m], (*ranks)[m:2*m]
	for i, e := range r {
		rank[i] = sr.Rank(e.Val)
	}
	copy(sel, rank)
	cut, ties := Cutoff(sel, rho)
	for i, rk := range rank {
		if rk < cut {
			dst = append(dst, r[i])
		} else if rk == cut && ties > 0 {
			dst = append(dst, r[i])
			ties--
		}
	}
	return dst
}

// Cutoff returns the Lemma 15 cutoff of ranks at rho, for
// 1 <= rho < len(ranks): cut is the rho-th smallest rank, and a filter to
// rho keeps every entry ranked below cut and then the ties entries of rank
// cut in the lowest columns. It permutes ranks, which is the caller's
// scratch.
func Cutoff(ranks []int64, rho int) (cut int64, ties int) {
	selectNth(ranks, rho-1)
	cut, ties = ranks[rho-1], rho
	for _, rk := range ranks[:rho-1] {
		if rk < cut {
			ties--
		}
	}
	return cut, ties
}

// selectNth permutes a so that a[k] is what sorting a would put there,
// with nothing larger before it and nothing smaller after it (Hoare's
// quickselect; the middle pivot keeps the sorted and constant runs common
// among distance ranks near-linear).
func selectNth(a []int64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Filter returns the ρ-filtered version of m: each row keeps its ρ smallest
// entries (§2.2).
func Filter[E any](sr semiring.Ordered[E], m *Mat[E], rho int) *Mat[E] {
	out := New[E](m.N)
	for i, r := range m.Rows {
		out.Rows[i] = FilterRow(sr, r, rho)
	}
	return out
}

// RandomSupport returns a deterministic random support pattern with the
// given number of entries per row (used by tests and benchmarks to build
// workload matrices).
func RandomSupport(n, perRow int, seed int64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int32, n)
	for i := range rows {
		seen := make(map[int32]struct{}, perRow)
		cols := make([]int32, 0, perRow)
		for len(cols) < perRow && len(cols) < n {
			c := int32(rng.Intn(n))
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			cols = append(cols, c)
		}
		rows[i] = cols
	}
	return rows
}
