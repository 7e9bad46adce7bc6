// The host-side ("direct") semiring product kernel. The distributed
// algorithms of this package compute S·T by shuffling row fragments
// between simulated nodes; when the caller only wants the algebra - the
// direct execution mode of DESIGN.md §12 - the same product is computed
// on the host by KernelMul, one generic kernel for every semiring, on
// pool.RunRows and with zero message construction.
// KernelMul is row-for-row equal to matrix.MulRef (and therefore to the
// distributed Multiply), and the reference KernelMulFilteredGeneric
// equals matrix.Filter ∘ matrix.MulRef (and therefore MultiplyFiltered):
// rows are independent, the scratch accumulators replicate MulRef's
// accumulation exactly, and semiring addition is commutative, so the
// output is byte-identical for every worker count. No direct path
// multiplies augmented or filtered matrices: the detections and the
// filtered products of Theorems 18 and 19 run as a search per row and
// rank panels in internal/disttools over pool.RunRows (DESIGN.md §13).
package matmul

import (
	"slices"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// arenaChunkEntries caps the row-arena chunk size: large enough that row
// allocation cost is amortized over hundreds of rows, small enough that
// an almost-unused final chunk wastes little.
const arenaChunkEntries = 1 << 14

// rowArena carves output rows out of large shared chunks, replacing a
// per-row make. Rows are handed out with full slice expressions
// (len == cap), so a later append by a caller can never clobber a
// neighboring row; chunks stay alive exactly as long as the rows placed
// in them.
type rowArena[E any] struct {
	free  []matrix.Entry[E]
	chunk int
}

// newRowArena sizes chunks for a product of n rows of at most perRow
// entries: never more than the whole output, so a small product does not
// pay a full chunk per worker.
func newRowArena[E any](n, perRow int) rowArena[E] {
	return rowArena[E]{chunk: max(1, min(arenaChunkEntries, n*min(perRow, n)))}
}

// place copies src into arena-backed storage and returns it; an empty
// src returns nil (an all-zero row).
func (a *rowArena[E]) place(src []matrix.Entry[E]) matrix.Row[E] {
	if len(src) == 0 {
		return nil
	}
	if len(a.free) < len(src) {
		a.free = make([]matrix.Entry[E], max(a.chunk, len(src)))
	}
	out := a.free[:len(src):len(src)]
	a.free = a.free[len(src):]
	copy(out, src)
	return out
}

// genWorker is one KernelMul worker's reusable scratch: MulRef's
// column accumulators and first-touch list, and the row build buffer the
// product row lives in.
type genWorker[E any] struct {
	acc     []E
	hit     []bool
	touched []int32
	rowBuf  []matrix.Entry[E]
}

func newGenWorker[E any](n int) *genWorker[E] {
	return &genWorker[E]{
		acc:     make([]E, n),
		hit:     make([]bool, n),
		touched: make([]int32, 0, n),
		rowBuf:  make([]matrix.Entry[E], 0, n),
	}
}

// mulRow computes row srow · T into the worker's scratch, exactly like
// the inner loop of matrix.MulRef: accumulate products column-wise, drop
// semiring zeros, emit by ascending column. The row is returned in rowBuf
// (valid until the next call; callers copy or filter it out).
func (wk *genWorker[E]) mulRow(sr semiring.Semiring[E], srow matrix.Row[E], t *matrix.Mat[E]) []matrix.Entry[E] {
	acc, hit := wk.acc, wk.hit
	tch := wk.touched[:0]
	for _, es := range srow {
		for _, et := range t.Rows[es.Col] {
			prod := sr.Mul(es.Val, et.Val)
			if hit[et.Col] {
				acc[et.Col] = sr.Add(acc[et.Col], prod)
			} else {
				hit[et.Col] = true
				acc[et.Col] = prod
				tch = append(tch, et.Col)
			}
		}
	}
	slices.Sort(tch)
	buf := wk.rowBuf[:0]
	for _, j := range tch {
		if !sr.IsZero(acc[j]) {
			buf = append(buf, matrix.Entry[E]{Col: j, Val: acc[j]})
		}
		hit[j] = false
	}
	wk.touched, wk.rowBuf = tch, buf
	return buf
}

// KernelMul computes P = S·T over sr on the host: the exact row
// accumulation of matrix.MulRef, parallel over cache-sized row blocks.
// The result equals matrix.MulRef(sr, s, t) entry-for-entry at every
// worker count (workers <= 0 means GOMAXPROCS, 1 runs serially).
func KernelMul[E any](sr semiring.Semiring[E], s, t *matrix.Mat[E], workers int) *matrix.Mat[E] {
	n := s.N
	p := matrix.New[E](n)
	pool.RunRows(n, workers, func() func(int) {
		wk, arena := newGenWorker[E](n), newRowArena[E](n, n)
		return func(i int) {
			p.Rows[i] = arena.place(wk.mulRow(sr, s.Rows[i], t))
		}
	})
	return p
}

// KernelMulWH is KernelMul over the augmented semiring, kept for the
// benchmark harness's per-layer row that calls it. AugMinPlus's Add and
// Mul never read its bounds, so the zero value serves.
func KernelMulWH(s, t *matrix.Mat[semiring.WH], workers int) *matrix.Mat[semiring.WH] {
	return KernelMul[semiring.WH](semiring.AugMinPlus{}, s, t, workers)
}

// FoldMinPlus folds the min-plus product S·T into dense rows without
// materializing it: rows[i][j] = min(rows[i][j], w(S[i][k]) + T[k][j])
// over every k, where w reads the weight of an entry of S. Row i of the
// table is written by the one worker that owns row i, straight from the
// products: no accumulator, no touched list, no sort, no output matrix.
// A product at or above semiring.Inf never undercuts a cell, which is
// MinPlus.Mul's saturation and the generic kernel's drop of zero entries
// in the one comparison; min is monotone and commutative, so a table whose
// cells are at most Inf ends up exactly as if KernelMul(S, T) had been
// computed and min-ed in cell by cell, at every worker count. Operands are
// at most Inf = 2^60, so a sum cannot overflow.
func FoldMinPlus[E any](rows [][]int64, s *matrix.Mat[E], w func(E) int64, t *matrix.Mat[int64], workers int) {
	pool.RunRows(s.N, workers, func() func(int) {
		return func(i int) {
			row := rows[i]
			for _, es := range s.Rows[i] {
				ew := w(es.Val)
				for _, et := range t.Rows[es.Col] {
					if x := ew + et.Val; x < row[et.Col] {
						row[et.Col] = x
					}
				}
			}
		}
	})
}

// KernelMulFilteredGeneric is the reference ρ-filtered product
// Filter(S·T, ρ) on the host: KernelMul, each row then filtered
// to its ρ smallest entries under the (Rank, column) order of §2.2. It
// equals matrix.Filter ∘ matrix.MulRef, and therefore the distributed
// MultiplyFiltered, at every worker count.
func KernelMulFilteredGeneric[E any](sr semiring.Ordered[E], s, t *matrix.Mat[E], rho, workers int) *matrix.Mat[E] {
	return matrix.Filter(sr, KernelMul(sr, s, t, workers), rho)
}

// KernelMulFilteredWH is KernelMulFilteredGeneric over the augmented
// semiring, kept for the benchmark harness's per-layer row that calls it.
func KernelMulFilteredWH(sr semiring.Ordered[semiring.WH], s, t *matrix.Mat[semiring.WH], rho, workers int) *matrix.Mat[semiring.WH] {
	return KernelMulFilteredGeneric(sr, s, t, rho, workers)
}
