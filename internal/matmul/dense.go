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
//
// The ρ-filtered product (whKernel: KernelMulFilteredWH and every
// Filtered over WH) adds a third row path, the bounded product: when
// some row of T holds at least ρ entries, T's rows are re-laid out once,
// ascending by weight, and each output row i first derives a weight
// bound τ_i - the least s.W plus the ρ-th lightest weight of T_j over
// the (j, s) of S_i whose T_j reaches ρ entries, each of which proves ρ
// distinct columns end at or below that weight - and then scans every
// T_j only up to weight τ_i − s.W. Rank is lexicographic in (W, H), so
// the filter keeps nothing heavier than τ_i and the row restricted to
// W ≤ τ_i has the same ρ smallest (rank, column) entries as the full
// one (DESIGN.md §13, "the fast build path"). When no row of T reaches
// ρ no bound exists and rows take the first two paths.
package matmul

import (
	"cmp"
	"math/bits"
	"slices"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// whWorker is one kernel worker's reusable scratch: flat weight/hop
// accumulators (rest state (Inf, Inf) everywhere), the touched-column
// list of the sparse path and the touched-column bitmap of the bounded
// one, a reusable row build buffer (also the by-weight view's sort
// buffer, between products) and the filter's rank scratch.
type whWorker struct {
	accW, accH []int64
	touched    []int32
	rowBuf     []matrix.Entry[semiring.WH]
	mark       []uint64
	ranks      []int64
}

func newWHWorker(n int) *whWorker {
	w := &whWorker{
		accW:    make([]int64, n),
		accH:    make([]int64, n),
		touched: make([]int32, 0, n),
		rowBuf:  make([]matrix.Entry[semiring.WH], 0, n),
		mark:    make([]uint64, (n+63)/64),
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
	productsAccumulated.Add(int64(products))
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

// whByWeight is T re-laid out for the bounded product: row j occupies
// [off[j], off[j+1]) of three parallel arrays, ascending by weight, and
// kth[j] is the weight of its rho-th lightest entry (semiring.Inf when it
// holds fewer than rho). The arrays belong to the whKernel running the
// products, which lays them out again for each new T.
type whByWeight struct {
	off  []int
	col  []int32
	w, h []int64
	kth  []int64
}

// whKernel computes the rows of successive ρ-filtered products over
// semiring.WH for a Filtered (kernel_filtered.go): bounded when t gives a
// weight bound, dense-tile or sparse otherwise. It owns the scratch of
// every pass worker and the by-weight view, and keeps both from one
// product to the next - and, recycled with its Filtered, from one run to
// the next.
type whKernel struct {
	sr      semiring.Ordered[semiring.WH]
	n, rho  int
	ws      []*whWorker
	view    whByWeight
	bounded bool // the view holds the current t
}

func (k *whKernel) reset(sr semiring.Ordered[semiring.WH], rho int) {
	k.sr, k.rho, k.bounded = sr, rho, false
}

func (k *whKernel) worker(w int) *whWorker {
	if k.ws[w] == nil {
		k.ws[w] = newWHWorker(k.n)
	}
	return k.ws[w]
}

// begin lays the view out for t, or finds that no row of t holds rho
// entries: no output row then has a bound, and one O(n) look at the row
// lengths finds that out before anything is allocated or sorted. The
// entry arrays grow to the larger of t's entries and reserve, so a run of
// products allocates them once; each row is sorted in its pass worker's
// row buffer.
func (k *whKernel) begin(t *matrix.Mat[semiring.WH], reserve int, run func(func(worker, row int))) {
	rho, v := k.rho, &k.view
	k.bounded = slices.ContainsFunc(t.Rows, func(row matrix.Row[semiring.WH]) bool { return len(row) >= rho })
	if !k.bounded {
		return
	}
	n := t.N
	if v.off == nil {
		v.off, v.kth = make([]int, n+1), make([]int64, n)
	}
	off := v.off
	for j, row := range t.Rows {
		off[j+1] = off[j] + len(row)
	}
	if total := off[n]; cap(v.col) < total {
		c := max(total, reserve)
		v.col, v.w, v.h = make([]int32, c), make([]int64, c), make([]int64, c)
	}
	run(func(wi, j int) {
		wk := k.worker(wi)
		tmp := append(wk.rowBuf[:0], t.Rows[j]...)
		slices.SortFunc(tmp, func(a, b matrix.Entry[semiring.WH]) int { return cmp.Compare(a.Val.W, b.Val.W) })
		lo := off[j]
		for p, e := range tmp {
			v.col[lo+p], v.w[lo+p], v.h[lo+p] = e.Col, e.Val.W, e.Val.H
		}
		v.kth[j] = semiring.Inf
		if len(tmp) >= rho {
			v.kth[j] = tmp[rho-1].Val.W
		}
		wk.rowBuf = tmp
	})
}

// row appends the filtered product row srow·T to dst: the row - bounded
// when begin found a bound, full otherwise - accumulates in the worker's
// scratch and only its ρ surviving entries are written out.
func (k *whKernel) row(w int, srow matrix.Row[semiring.WH], t *matrix.Mat[semiring.WH], dst matrix.Row[semiring.WH]) matrix.Row[semiring.WH] {
	wk := k.worker(w)
	var row []matrix.Entry[semiring.WH]
	if k.bounded {
		row = wk.mulRowBounded(srow, &k.view)
	} else {
		row = wk.mulRow(srow, t)
	}
	return matrix.FilterRowAppend(k.sr, dst, row, k.rho, &wk.ranks)
}

// mulRowBounded computes the entries of row srow · T that a rho-filter
// can keep - those of weight at most the row's bound τ - and returns them
// like mulRow does. Each scan of a T row stops at the first entry heavier
// than τ − s.W; entries at exactly τ are still accumulated, so the
// filter's lowest-column rule among rank ties sees every candidate. With
// no bound τ is Inf−1, and the break is the saturation skip of mulRow:
// past it every product reaches semiring.Inf.
func (wk *whWorker) mulRowBounded(srow matrix.Row[semiring.WH], t *whByWeight) []matrix.Entry[semiring.WH] {
	tau := semiring.Inf - 1
	for _, es := range srow {
		// kth is Inf for a short row and the sum reaches Inf when the
		// rho-th product saturates: neither proves rho columns.
		if b := es.Val.W + t.kth[es.Col]; b < tau {
			tau = b
		}
	}
	accW, accH, mark := wk.accW, wk.accH, wk.mark
	products := 0
	for _, es := range srow {
		ew, eh := es.Val.W, es.Val.H
		lo, hi := t.off[es.Col], t.off[es.Col+1]
		ws, hs, cols := t.w[lo:hi], t.h[lo:hi], t.col[lo:hi]
		lim := tau - ew
		for p, tw := range ws {
			if tw > lim {
				break
			}
			products++
			j := cols[p]
			w := ew + tw
			aw := accW[j]
			if w > aw {
				continue
			}
			h := eh + hs[p]
			if w < aw || h < accH[j] {
				accW[j], accH[j] = w, h
				mark[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
	productsAccumulated.Add(int64(products))
	buf := wk.rowBuf[:0]
	for wi, word := range mark {
		for ; word != 0; word &= word - 1 {
			j := wi<<6 | bits.TrailingZeros64(word)
			buf = append(buf, matrix.Entry[semiring.WH]{Col: int32(j), Val: semiring.WH{W: accW[j], H: accH[j]}})
			accW[j] = semiring.Inf
			accH[j] = semiring.Inf
		}
		mark[wi] = 0
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

// KernelMulFilteredWH computes the ρ-filtered product Filter(S·T, rho)
// with the specialized row paths, as one product on a Filtered it never
// releases, so the caller owns the result: the
// row - bounded when t gives a bound, full otherwise - accumulates in
// reusable scratch and only its ρ surviving entries are written out. sr
// supplies the (Rank, column) filter order of §2.2 and must rank by
// (W, H) lexicographically, as semiring.AugMinPlus does.
func KernelMulFilteredWH(sr semiring.Ordered[semiring.WH], s, t *matrix.Mat[semiring.WH], rho, workers int) *matrix.Mat[semiring.WH] {
	return newFiltered(sr, s.N, rho, workers, true).Mul(s, t)
}
