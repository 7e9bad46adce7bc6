// Host-side ("direct") semiring product kernels. The distributed
// algorithms of this package compute S·T by shuffling row fragments
// between simulated nodes; when the caller only wants the algebra - the
// direct execution mode of DESIGN.md §12 - the same products can be
// computed on flat, cache-blocked matrices with a worker pool and zero
// message construction. KernelMul is row-for-row equal to matrix.MulRef
// (and therefore to the distributed Multiply), and KernelMulFiltered
// equals matrix.Filter ∘ matrix.MulRef (and therefore MultiplyFiltered):
// rows are independent, the scratch accumulators replicate MulRef's
// accumulation exactly, and semiring addition is commutative, so the
// output is byte-identical for every worker count.
package matmul

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// kernelBlock is the number of consecutive rows a worker claims at a
// time: large enough that the claim counter is cold, small enough that
// the rows of one block (plus the scratch accumulator) stay
// cache-resident and the tail imbalance is negligible.
const kernelBlock = 32

// kernelWorkers resolves a worker-count knob: <= 0 means GOMAXPROCS,
// and the count is capped so no worker would sit idle.
func kernelWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if blocks := (n + kernelBlock - 1) / kernelBlock; workers > blocks {
		workers = blocks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunRows exposes the kernel worker pool's deterministic row
// partitioning to sibling packages (the restricted source-detection
// panel of internal/disttools iterates it per product step): each row is
// computed by exactly one worker, so any per-row function whose output
// depends only on its row index runs identically at every worker count.
func RunRows(n, workers int, newWorker func() func(row int)) {
	runRows(n, workers, newWorker)
}

// runRows executes a per-row function over rows [0, n), block-partitioned
// across workers. newWorker is called once per worker to allocate its
// private scratch state and returns the row function; with one worker the
// loop runs inline with no goroutines (the serial engine analogue).
func runRows(n, workers int, newWorker func() func(row int)) {
	w := kernelWorkers(workers, n)
	if w == 1 {
		fn := newWorker()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < w; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker()
			for {
				lo := int(next.Add(kernelBlock)) - kernelBlock
				if lo >= n {
					return
				}
				hi := min(lo+kernelBlock, n)
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

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

// genWorker is one generic-kernel worker's reusable scratch: MulRef's
// column accumulators and first-touch list, the row build buffer the
// product row (and its in-place filter) lives in, the filter's rank
// scratch, and the arena finished rows are placed in.
type genWorker[E any] struct {
	acc     []E
	hit     []bool
	touched []int32
	rowBuf  []matrix.Entry[E]
	ranks   []int64
	arena   rowArena[E]
}

func newGenWorker[E any](n, perRow int) *genWorker[E] {
	return &genWorker[E]{
		acc:     make([]E, n),
		hit:     make([]bool, n),
		touched: make([]int32, 0, n),
		rowBuf:  make([]matrix.Entry[E], 0, n),
		arena:   newRowArena[E](n, perRow),
	}
}

// mulRow computes row srow · T into the worker's scratch, exactly like
// the inner loop of matrix.MulRef: accumulate products column-wise, drop
// semiring zeros, emit by ascending column. The row is returned in rowBuf
// (valid until the next call; callers copy it out via arena.place).
func (wk *genWorker[E]) mulRow(sr semiring.Semiring[E], srow matrix.Row[E], t *matrix.Mat[E]) []matrix.Entry[E] {
	acc, hit := wk.acc, wk.hit
	tch := wk.touched[:0]
	products := 0
	for _, es := range srow {
		trow := t.Rows[es.Col]
		products += len(trow)
		for _, et := range trow {
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
	productsAccumulated.Add(int64(products))
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

// productsAccumulated counts the semiring products the host-side kernels
// (this file and dense.go) have accumulated since process start.
var productsAccumulated atomic.Int64

// ProductsAccumulated reads the process-wide product counter. It is
// monotone and shared by every concurrent product, so only a delta taken
// around a call with nothing else running means anything: the use of
// benchmarks (BenchmarkKNearestAll) and of DESIGN.md §13's
// products-per-squaring table.
func ProductsAccumulated() int64 { return productsAccumulated.Load() }

// KernelMul computes P = S·T over sr on the host, parallel over
// cache-sized row blocks. The result equals matrix.MulRef(sr, s, t)
// entry-for-entry at every worker count (workers <= 0 means GOMAXPROCS,
// 1 runs serially). Products over the augmented min-plus semiring
// dispatch to the specialized flat kernel (dense.go); every other
// semiring runs the generic reference path.
func KernelMul[E any](sr semiring.Semiring[E], s, t *matrix.Mat[E], workers int) *matrix.Mat[E] {
	if _, ok := any(sr).(semiring.AugMinPlus); ok {
		p := KernelMulWH(any(s).(*matrix.Mat[semiring.WH]), any(t).(*matrix.Mat[semiring.WH]), workers)
		return any(p).(*matrix.Mat[E])
	}
	return KernelMulGeneric(sr, s, t, workers)
}

// KernelMulGeneric is the generic reference kernel: the exact row
// accumulation of matrix.MulRef, block-parallelized. The specialized WH
// kernel is verified against it entry-for-entry (dense_test.go), so it
// remains the checkable specification of every product.
func KernelMulGeneric[E any](sr semiring.Semiring[E], s, t *matrix.Mat[E], workers int) *matrix.Mat[E] {
	n := s.N
	p := matrix.New[E](n)
	runRows(n, workers, func() func(int) {
		wk := newGenWorker[E](n, n)
		return func(i int) {
			p.Rows[i] = wk.arena.place(wk.mulRow(sr, s.Rows[i], t))
		}
	})
	return p
}

// KernelMulFiltered computes the ρ-filtered product Filter(S·T, rho) on
// the host: each output row keeps its rho smallest entries under the
// (Rank, column) order of §2.2. It equals
// matrix.Filter(sr, matrix.MulRef(sr, s, t), rho) - and therefore the
// distributed MultiplyFiltered - at every worker count. Augmented
// min-plus products dispatch to the specialized flat kernel (dense.go).
func KernelMulFiltered[E any](sr semiring.Ordered[E], s, t *matrix.Mat[E], rho, workers int) *matrix.Mat[E] {
	if aug, ok := any(sr).(semiring.AugMinPlus); ok {
		p := KernelMulFilteredWH(aug, any(s).(*matrix.Mat[semiring.WH]), any(t).(*matrix.Mat[semiring.WH]), rho, workers)
		return any(p).(*matrix.Mat[E])
	}
	return KernelMulFilteredGeneric(sr, s, t, rho, workers)
}

// KernelMulFilteredGeneric is the generic reference filtered kernel; see
// KernelMulGeneric. The full row is filtered in place in the worker's
// row buffer and only the survivors are copied out.
func KernelMulFilteredGeneric[E any](sr semiring.Ordered[E], s, t *matrix.Mat[E], rho, workers int) *matrix.Mat[E] {
	n := s.N
	p := matrix.New[E](n)
	runRows(n, workers, func() func(int) {
		wk := newGenWorker[E](n, rho)
		return func(i int) {
			row := wk.mulRow(sr, s.Rows[i], t)
			p.Rows[i] = wk.arena.place(matrix.FilterRowAppend(sr, row[:0], row, rho, &wk.ranks))
		}
	})
	return p
}

// FilterCols returns Filter(M restricted to the columns marked in cols,
// rho), the first iterate of both direct detection loops (KNearestAll,
// SourceDetectKAll); a nil cols keeps every column. Rows are built in one
// reusable buffer and placed in one arena, like a filtered product's; a
// row that needs neither restricting nor filtering is shared with m.
func FilterCols[E any](sr semiring.Ordered[E], m *matrix.Mat[E], cols []bool, rho int) *matrix.Mat[E] {
	n := m.N
	out := matrix.New[E](n)
	arena := newRowArena[E](n, rho)
	var buf matrix.Row[E]
	var ranks []int64
	for v, row := range m.Rows {
		if cols == nil && len(row) <= rho {
			out.Rows[v] = row
			continue
		}
		if cols != nil {
			buf = buf[:0]
			for _, e := range row {
				if cols[e.Col] {
					buf = append(buf, e)
				}
			}
			row = buf
		}
		buf = matrix.FilterRowAppend(sr, buf[:0], row, rho, &ranks)
		out.Rows[v] = arena.place(buf)
	}
	return out
}
