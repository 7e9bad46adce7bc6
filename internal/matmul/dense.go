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
// The ρ-filtered product (whKernel: every Filtered over an AugMinPlus
// whose box packs) accumulates packed keys instead of (W, H) pairs. With
// factors in the box a product's hop count stays below M = 2·MaxH + 1,
// so the key W·M + H of a product is the sum of its factors' keys and
// orders products exactly as the lexicographic min does: one accumulator
// array, one integer min, no tie branch, and a bitmap of touched columns
// that emits in column order, decoding each key back to (W, H). The keys
// of two factors in the box sum to below 2^62 (keyBase); any other
// semiring takes the generic row path. The product adds a second row
// path, the bounded product: when some row of T holds at least ρ
// entries, T's rows are re-laid out once as keyed entries, ascending by
// key, and each output row i first derives a weight bound τ_i - the
// least s.W plus the ρ-th lightest weight of T_j over the (j, s) of S_i
// whose T_j reaches ρ entries, each of which proves ρ distinct columns
// end at or below that weight - and then scans every T_j only up to
// weight τ_i − s.W. Rank is lexicographic in (W, H), so the filter keeps
// nothing heavier than τ_i and the row restricted to W ≤ τ_i has the
// same ρ smallest (rank, column) entries as the full one (DESIGN.md §13,
// "the fast build path"). When no row of T reaches ρ no bound exists and
// rows scan T's rows in full.
package matmul

import (
	"cmp"
	"math"
	"math/bits"
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

// keyed is one entry of the by-weight view: a T entry's column and its
// packed key W·M + H.
type keyed struct {
	key int64
	col int32
}

// whByWeight is T re-laid out for the bounded product: row j occupies
// [off[j], off[j+1]) of ent, ascending by key (so by weight), and kth[j]
// is the weight of its rho-th lightest entry (semiring.Inf when it holds
// fewer than rho). The arrays belong to the whKernel running the
// products, which lays them out again for each new T.
type whByWeight struct {
	off []int
	ent []keyed
	kth []int64
}

// noKey is the accumulator's rest state: every packed key is below it.
const noKey = math.MaxInt64

// keyWorker is one filtered-kernel worker's reusable scratch: the packed
// accumulator (rest state noKey everywhere), the touched-column bitmap,
// the row build buffer and the filter's rank scratch.
type keyWorker struct {
	acc    []int64
	mark   []uint64
	rowBuf []matrix.Entry[semiring.WH]
	ranks  []int64
}

func newKeyWorker(n int) *keyWorker {
	w := &keyWorker{
		acc:    make([]int64, n),
		mark:   make([]uint64, (n+63)/64),
		rowBuf: make([]matrix.Entry[semiring.WH], 0, n),
	}
	for j := range w.acc {
		w.acc[j] = noKey
	}
	return w
}

// keyBase returns the multiplier M = 2·MaxH + 1 of the packed keys
// W·M + H over sr and whether they fit. A factor of a product lies in
// sr's box [0, MaxW] × [0, MaxH], so a product's hop count stays below M
// and its key is the sum of its factors' keys; the keys fit when that
// sum stays below 2^62 and a product's weight below semiring.Inf, which
// holds for every semiring semiring.NewAugMinPlus admits. Any other
// semiring, AugMinPlus or not, does not pack.
func keyBase(sr any) (int64, bool) {
	a, ok := sr.(semiring.AugMinPlus)
	if !ok || a.MaxW < 0 || a.MaxH < 0 || a.MaxH >= 1<<59 || a.MaxW >= semiring.Inf/2 {
		return 0, false
	}
	m := 2*a.MaxH + 1
	return m, a.MaxW <= (1<<61-1-a.MaxH)/m
}

// whKernel computes the rows of successive ρ-filtered products over
// semiring.WH for a Filtered (kernel_filtered.go) whose semiring packs
// (keyBase): bounded when t gives a weight bound, unbounded otherwise. It
// owns the scratch of every pass worker and the by-weight view, and keeps
// both from one product to the next - and, recycled with its Filtered,
// from one run to the next.
type whKernel struct {
	sr      semiring.Ordered[semiring.WH]
	m       int64 // the key multiplier of sr
	n, rho  int
	ws      []*keyWorker
	view    whByWeight
	bounded bool // the view holds the current t
}

func (k *whKernel) reset(sr semiring.Ordered[semiring.WH], rho int) {
	m, ok := keyBase(sr)
	if !ok {
		panic("matmul: packed kernel over a semiring whose keys do not fit")
	}
	k.sr, k.m, k.rho, k.bounded = sr, m, rho, false
}

func (k *whKernel) fit(workers int) { k.ws = fitSlots(k.ws, workers) }

func (k *whKernel) worker(w int) *keyWorker {
	if k.ws[w] == nil {
		k.ws[w] = newKeyWorker(k.n)
	}
	return k.ws[w]
}

// begin lays the view out for t, or finds that no row of t holds rho
// entries: no output row then has a bound, and one O(n) look at the row
// lengths finds that out before anything is allocated or sorted. The
// entry array grows to the larger of t's entries and reserve, so a run of
// products allocates it once; each row is keyed and sorted in place by a
// pass worker.
func (k *whKernel) begin(t *matrix.Mat[semiring.WH], reserve int, run func(func(worker, row int))) {
	rho, m, v := k.rho, k.m, &k.view
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
	if total := off[n]; cap(v.ent) < total {
		v.ent = make([]keyed, max(total, reserve))
	}
	run(func(_, j int) {
		ents := v.ent[off[j]:off[j+1]]
		for p, e := range t.Rows[j] {
			ents[p] = keyed{key: e.Val.W*m + e.Val.H, col: e.Col}
		}
		slices.SortFunc(ents, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		v.kth[j] = semiring.Inf
		if len(ents) >= rho {
			v.kth[j] = ents[rho-1].key / m
		}
	})
}

// row appends the filtered product row srow·T to dst: the row - bounded
// when begin found a bound, full otherwise - accumulates in the worker's
// scratch and only its ρ surviving entries are written out.
func (k *whKernel) row(w int, srow matrix.Row[semiring.WH], t *matrix.Mat[semiring.WH], dst matrix.Row[semiring.WH]) matrix.Row[semiring.WH] {
	wk := k.worker(w)
	if k.bounded {
		wk.mulRowBounded(srow, &k.view, k.m)
	} else {
		wk.mulRowKeyed(srow, t, k.m)
	}
	return matrix.FilterRowAppend(k.sr, dst, wk.emit(k.m), k.rho, &wk.ranks)
}

// mulRowKeyed accumulates row srow · T, every product of it, as packed
// keys: the (W, H)-lexicographic min of two products is the min of their
// keys.
func (wk *keyWorker) mulRowKeyed(srow matrix.Row[semiring.WH], t *matrix.Mat[semiring.WH], m int64) {
	acc, mark := wk.acc, wk.mark
	products := 0
	for _, es := range srow {
		ek := es.Val.W*m + es.Val.H
		trow := t.Rows[es.Col]
		products += len(trow)
		for _, et := range trow {
			j := et.Col
			acc[j] = min(acc[j], ek+et.Val.W*m+et.Val.H)
			mark[j>>6] |= 1 << (uint32(j) & 63)
		}
	}
	productsAccumulated.Add(int64(products))
}

// mulRowBounded accumulates the products of row srow · T that a
// rho-filter can keep - those of weight at most the row's bound τ - like
// mulRowKeyed does. Each scan of a T row stops at the first entry heavier
// than τ − s.W, that is at a key above (τ − s.W)·M + M − 1: entries at
// exactly τ are still accumulated, whatever their hops, so the filter's
// lowest-column rule among rank ties sees every candidate. A row with no
// bound scans every entry.
func (wk *keyWorker) mulRowBounded(srow matrix.Row[semiring.WH], t *whByWeight, m int64) {
	tau := int64(semiring.Inf)
	for _, es := range srow {
		// kth is Inf for a short row: it proves no rho columns.
		tau = min(tau, es.Val.W+t.kth[es.Col])
	}
	acc, mark := wk.acc, wk.mark
	products := 0
	for _, es := range srow {
		ek := es.Val.W*m + es.Val.H
		lim := int64(noKey)
		if tau < semiring.Inf {
			lim = (tau-es.Val.W)*m + m - 1
		}
		ents := t.ent[t.off[es.Col]:t.off[es.Col+1]]
		scanned := len(ents)
		for p, e := range ents {
			if e.key > lim {
				scanned = p
				break
			}
			acc[e.col] = min(acc[e.col], ek+e.key)
			mark[e.col>>6] |= 1 << (uint32(e.col) & 63)
		}
		products += scanned
	}
	productsAccumulated.Add(int64(products))
}

// emit returns the accumulated row in rowBuf, in column order and decoded
// to (W, H) (valid until the next call; callers filter it out), and puts
// the accumulator and the bitmap back to rest.
func (wk *keyWorker) emit(m int64) []matrix.Entry[semiring.WH] {
	acc, buf := wk.acc, wk.rowBuf[:0]
	for wi, word := range wk.mark {
		for ; word != 0; word &= word - 1 {
			j := wi<<6 | bits.TrailingZeros64(word)
			w := acc[j] / m
			buf = append(buf, matrix.Entry[semiring.WH]{Col: int32(j), Val: semiring.WH{W: w, H: acc[j] - w*m}})
			acc[j] = noKey
		}
		wk.mark[wi] = 0
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
// as one product on a Filtered it never releases, so the caller owns the
// result: over a semiring whose keys pack the row - bounded when t gives
// a bound, full otherwise - accumulates packed keys in reusable scratch
// and only its ρ surviving entries are written out; over any other the
// generic row path runs. sr supplies the (Rank, column) filter order of
// §2.2.
func KernelMulFilteredWH(sr semiring.Ordered[semiring.WH], s, t *matrix.Mat[semiring.WH], rho, workers int) *matrix.Mat[semiring.WH] {
	return NewFiltered(sr, s.N, rho, workers).Mul(s, t)
}
