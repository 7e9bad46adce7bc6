// Specialized min-plus product kernels for the augmented semiring
// (DESIGN.md §13). The generic KernelMul pays an interface dispatch per
// semiring operation plus a row allocation and sort per output row; for
// semiring.WH - the element type of every hot query-path product - the
// same accumulation can run on flat struct-of-arrays scratch (separate
// weight and hop vectors), a guarded branch-light lexicographic min, and
// per-worker row arenas that amortize output allocation across many
// rows. The emitted rows are entry-for-entry identical to the generic
// kernel's (and therefore to matrix.MulRef and the distributed
// Multiply): the min is computed over the same product set, semiring
// addition is a commutative min so accumulation order is irrelevant, and
// the two deliberate shortcuts preserve the emitted set exactly -
//
//   - products whose weight saturates at or above semiring.Inf are
//     skipped instead of stored: stored rows never contain them (the
//     generic kernel drops IsZero entries at emit), and under the
//     lexicographic min a finite candidate always beats them, so
//     skipping changes no emitted entry;
//   - the accumulator's rest state is exactly (Inf, Inf), which doubles
//     as the "untouched" marker: a finite first product always wins
//     against it, replicating the generic first-touch assignment.
//
// KernelMulWH selects per output row between a sparse-row product
// (touched-column list, sorted once per row) and a dense-tile product
// (no touch tracking, one ordered scan over all n columns): when the row
// accumulates at least n products - which hopset-augmented matrices
// reach quickly - the O(n) ordered scan is cheaper than touch
// bookkeeping plus a sort. Both paths produce identical rows, so the
// selection is invisible to callers and to the differential oracle.
package matmul

import (
	"slices"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// whWorker is one KernelMulWH worker's reusable scratch: flat
// weight/hop accumulators (rest state (Inf, Inf) everywhere), the
// touched-column list of the sparse path and a reusable row build buffer.
type whWorker struct {
	accW, accH []int64
	touched    []int32
	rowBuf     []matrix.Entry[semiring.WH]
}

func newWHWorker(n int) *whWorker {
	w := &whWorker{
		accW:    make([]int64, n),
		accH:    make([]int64, n),
		touched: make([]int32, 0, n),
		rowBuf:  make([]matrix.Entry[semiring.WH], 0, n),
	}
	for j := 0; j < n; j++ {
		w.accW[j] = semiring.Inf
		w.accH[j] = semiring.Inf
	}
	return w
}

// mulRow computes row srow · T into the worker's scratch and returns the
// finished row in rowBuf (valid until the next call; callers copy or
// filter it out). The accumulators are restored to their (Inf, Inf) rest
// state before returning.
func (wk *whWorker) mulRow(srow matrix.Row[semiring.WH], t *matrix.Mat[semiring.WH]) []matrix.Entry[semiring.WH] {
	n := t.N
	products := 0
	for _, es := range srow {
		products += len(t.Rows[es.Col])
	}
	accW, accH := wk.accW, wk.accH
	buf := wk.rowBuf[:0]

	if products >= n {
		// Dense tile: no touch tracking; emit with one ordered scan
		// that also resets the accumulators.
		for _, es := range srow {
			ew, eh := es.Val.W, es.Val.H
			for _, et := range t.Rows[es.Col] {
				w := ew + et.Val.W
				if w >= semiring.Inf {
					continue
				}
				j := et.Col
				aw := accW[j]
				if w > aw {
					continue
				}
				h := eh + et.Val.H
				if w < aw || h < accH[j] {
					accW[j], accH[j] = w, h
				}
			}
		}
		for j := 0; j < n; j++ {
			if accW[j] < semiring.Inf {
				buf = append(buf, matrix.Entry[semiring.WH]{Col: int32(j), Val: semiring.WH{W: accW[j], H: accH[j]}})
				accW[j] = semiring.Inf
				accH[j] = semiring.Inf
			}
		}
	} else {
		// Sparse row: track touched columns, sort the (small) column
		// list once, emit in column order.
		tch := wk.touched[:0]
		for _, es := range srow {
			ew, eh := es.Val.W, es.Val.H
			for _, et := range t.Rows[es.Col] {
				w := ew + et.Val.W
				if w >= semiring.Inf {
					continue
				}
				j := et.Col
				aw := accW[j]
				if w > aw {
					continue
				}
				h := eh + et.Val.H
				if aw == semiring.Inf {
					accW[j], accH[j] = w, h
					tch = append(tch, j)
				} else if w < aw || h < accH[j] {
					accW[j], accH[j] = w, h
				}
			}
		}
		slices.Sort(tch)
		for _, j := range tch {
			buf = append(buf, matrix.Entry[semiring.WH]{Col: j, Val: semiring.WH{W: accW[j], H: accH[j]}})
			accW[j] = semiring.Inf
			accH[j] = semiring.Inf
		}
		wk.touched = tch[:0]
	}
	wk.rowBuf = buf
	return buf
}

// KernelMulWH computes P = S·T over the augmented min-plus semiring with
// the specialized flat kernel. The result equals
// KernelMulGeneric(semiring.AugMinPlus{...}, s, t, workers) - and
// therefore matrix.MulRef - entry-for-entry at every worker count. The
// semiring's bounds only parameterize rank encoding, not Add/Mul, so no
// semiring value is needed.
func KernelMulWH(s, t *matrix.Mat[semiring.WH], workers int) *matrix.Mat[semiring.WH] {
	n := s.N
	p := matrix.New[semiring.WH](n)
	runRows(n, workers, func() func(int) {
		wk, arena := newWHWorker(n), newRowArena[semiring.WH](n, n)
		return func(i int) {
			p.Rows[i] = arena.place(wk.mulRow(s.Rows[i], t))
		}
	})
	return p
}

// KernelMulFilteredWH is KernelMulFilteredGeneric over the augmented
// semiring, kept for the benchmark harness's per-layer row that calls it.
func KernelMulFilteredWH(sr semiring.Ordered[semiring.WH], s, t *matrix.Mat[semiring.WH], rho, workers int) *matrix.Mat[semiring.WH] {
	return KernelMulFilteredGeneric(sr, s, t, rho, workers)
}
