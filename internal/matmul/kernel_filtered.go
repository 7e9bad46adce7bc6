package matmul

import (
	"sync"
	"sync/atomic"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Filtered owns what successive ρ-filtered products of one shape share
// (DESIGN.md §13, "large answers allocate the answer"): the per-worker
// scratch, the by-weight view of the bounded product, and two flat output
// slabs. Row i of an output is a window of its slab that starts where row
// i-1's window ends and is as wide as the row can get: width entries, or
// one per product of the row when that is fewer. The finished row is
// clipped to its own length, under a matrix header that is reused with the
// slab.
//
// Outputs alternate between the two slabs, so the matrix a call returns
// stays intact through the next call and is overwritten by the one after:
// a loop u ← Filter(w·u) holds exactly its current and its next iterate. A Filtered serves one caller at a time.
//
// A caller that is done with every matrix it was handed gives the whole
// Filtered back with Release, and a later NewFiltered of the same n and
// row kernel takes it over, at any worker count - slabs, headers, scratch
// and view - instead of allocating them (DESIGN.md §13, "who owns which
// slab, and for how long"). The recycled ones wait in a sync.Pool per
// element type, so a collection empties it and nothing stays resident. A
// caller that never releases owns the matrices it was handed.
//
// width bounds how many entries a filtered row is given room for: ρ, or
// the number of columns FilterCols kept when that is fewer - the iterates
// of a detection over |S| sources never fill more than |S| columns. A row
// that outgrows its window anyway moves to memory of its own, so a loose
// width costs bytes and a tight one an allocation, never an entry.
type Filtered[E any] struct {
	sr      semiring.Ordered[E]
	n, rho  int
	width   int // min(ρ, n) until FilterCols narrows it
	workers int // resolved once: no pass runs more (runRows may run fewer)

	kernel rowKernel[E]
	next   atomic.Int32 // scratch handed out in the running pass

	out  [2]*matrix.Mat[E]
	slab [2][]matrix.Entry[E]
	turn int   // the slab the next output goes to
	off  []int // the windows of the output being written: row i is [off[i], off[i+1])
}

// rowKernel is one way of computing the rows of a filtered product: the
// packed paths over semiring.WH (whKernel) or the reference
// accumulation over any ordered semiring (genKernel). worker indexes the
// pass worker whose scratch the call may use.
type rowKernel[E any] interface {
	// begin readies the kernel for rows against t, a matrix of at most
	// reserve entries like those after it; run is a row pass.
	begin(t *matrix.Mat[E], reserve int, run func(func(worker, row int)))
	// row appends the filtered product row srow·T to dst.
	row(worker int, srow matrix.Row[E], t *matrix.Mat[E], dst matrix.Row[E]) matrix.Row[E]
	// reset readies the kernel for products over sr filtered to rho; a
	// recycled one keeps its scratch.
	reset(sr semiring.Ordered[E], rho int)
	// fit gives the kernel scratch slots for passes of up to workers
	// goroutines; the slots it has are kept.
	fit(workers int)
}

// NewFiltered returns the shared state for ρ-filtered products of n×n
// matrices over sr. Augmented min-plus products whose keys pack (keyBase)
// take the packed row paths (dense.go), every other semiring - an
// AugMinPlus with a box too large to pack among them - the generic one.
// workers <= 0 means GOMAXPROCS.
func NewFiltered[E any](sr semiring.Ordered[E], n, rho, workers int) *Filtered[E] {
	_, wh := keyBase(sr)
	return newFiltered(sr, n, rho, workers, wh)
}

// poolKey keys the pool of released Filtered[E] in filteredPools.
type poolKey[E any] struct{}

var filteredPools sync.Map // poolKey[E] → *sync.Pool of *Filtered[E]

func filteredPool[E any]() *sync.Pool {
	if p, ok := filteredPools.Load(poolKey[E]{}); ok {
		return p.(*sync.Pool)
	}
	p, _ := filteredPools.LoadOrStore(poolKey[E]{}, new(sync.Pool))
	return p.(*sync.Pool)
}

// newFiltered picks the row kernel explicitly: wh requires E to be
// semiring.WH and sr an AugMinPlus whose keys pack. A released Filtered
// of the same n and kernel is taken over whatever worker count it ran
// at - the width of a pass follows load anyway (runRows) - and one that
// differs is dropped.
func newFiltered[E any](sr semiring.Ordered[E], n, rho, workers int, wh bool) *Filtered[E] {
	f, _ := filteredPool[E]().Get().(*Filtered[E])
	if f == nil || f.n != n || f.wh() != wh {
		f = &Filtered[E]{n: n, off: make([]int, n+1)}
		if wh {
			f.kernel = any(&whKernel{n: n}).(rowKernel[E])
		} else {
			f.kernel = &genKernel[E]{n: n}
		}
	}
	f.workers = kernelWorkers(workers, n)
	f.kernel.fit(f.workers)
	f.sr, f.rho, f.width, f.turn = sr, rho, max(0, min(rho, n)), 0
	f.kernel.reset(sr, rho)
	return f
}

// wh reports whether f runs the packed row kernel.
func (f *Filtered[E]) wh() bool {
	_, ok := any(f.kernel).(*whKernel)
	return ok
}

// Release gives f back for a later NewFiltered to take over. Every matrix
// f returned is dead from then on - its rows are the next taker's slabs -
// and so is f. Call it at most once, after the last read of the last
// matrix.
func (f *Filtered[E]) Release() { filteredPool[E]().Put(f) }

// run is one row pass over [0, n): fn gets, beside the row, the index of
// the pass worker calling it, stable within the pass and below the number
// of goroutines the pass started, so below workers.
func (f *Filtered[E]) run(fn func(worker, row int)) {
	f.next.Store(0)
	runRows(f.n, f.workers, func() func(int) {
		w := int(f.next.Add(1)) - 1
		return func(i int) { fn(w, i) }
	})
}

// output returns the matrix the next result is written to and the slab
// under it, once off holds the result's windows. A slab too small for them
// is replaced - by a whole one, n·width entries, when the windows already
// take half of that: the rows of a loop's iterates fill up, and a slab that
// starts out nearly whole would be outgrown by the next product written to
// it (cut to the windows every time, a squaring loop at n = 1024 allocated
// a third and a fourth slab: +20 to +50 % bytes per query).
func (f *Filtered[E]) output() (*matrix.Mat[E], []matrix.Entry[E]) {
	b := f.turn
	f.turn ^= 1
	if f.out[b] == nil {
		f.out[b] = matrix.New[E](f.n)
	}
	if need := f.off[f.n]; cap(f.slab[b]) < need {
		if whole := f.n * f.width; 2*need >= whole {
			need = whole
		}
		f.slab[b] = make([]matrix.Entry[E], need)
	}
	return f.out[b], f.slab[b]
}

// window is row i's empty place in slab.
func (f *Filtered[E]) window(slab []matrix.Entry[E], i int) matrix.Row[E] {
	return slab[f.off[i]:f.off[i]:f.off[i+1]]
}

// clipped ends a finished row at its own length, so that an append to it
// reallocates instead of reaching the next row's window; an empty row is
// nil, the all-zero row.
func clipped[E any](row matrix.Row[E]) matrix.Row[E] {
	if len(row) == 0 {
		return nil
	}
	return row[:len(row):len(row)]
}

// Mul computes the ρ-filtered product Filter(S·T, ρ) into the next slab:
// each output row keeps its ρ smallest entries under the (Rank, column)
// order of §2.2. It equals matrix.Filter(sr, matrix.MulRef(sr, s, t), ρ) -
// and therefore the distributed MultiplyFiltered - at every worker count.
// Neither operand may be the output before last, whose slab this product
// overwrites.
func (f *Filtered[E]) Mul(s, t *matrix.Mat[E]) *matrix.Mat[E] {
	need := 0
	for i, srow := range s.Rows {
		f.off[i] = need
		products := 0
		for _, e := range srow {
			products += len(t.Rows[e.Col])
		}
		need += min(f.width, products) // at most one entry per product
	}
	f.off[f.n] = need
	out, slab := f.output()
	if f.rho < 1 {
		clear(out.Rows) // the filter keeps nothing; a recycled header still holds rows
		return out
	}
	f.kernel.begin(t, f.n*f.width, f.run)
	f.run(func(w, i int) {
		out.Rows[i] = clipped(f.kernel.row(w, s.Rows[i], t, f.window(slab, i)))
	})
	return out
}

// FilterCols computes Filter(M restricted to the columns marked in cols,
// ρ) into the next slab - the first iterate of the direct (S,d,k)
// detection loop (SourceDetectKLent); a nil cols keeps every column.
// From here on rows get room for no more entries than columns were kept.
func (f *Filtered[E]) FilterCols(m *matrix.Mat[E], cols []bool) *matrix.Mat[E] {
	if cols != nil {
		kept := 0
		for _, keep := range cols {
			if keep {
				kept++
			}
		}
		f.width = min(f.width, kept)
	}
	need := 0
	for v, row := range m.Rows {
		f.off[v] = need
		need += min(f.width, len(row))
	}
	f.off[f.n] = need
	out, slab := f.output()
	var buf matrix.Row[E]
	var ranks []int64
	for v, row := range m.Rows {
		if cols != nil {
			buf = buf[:0]
			for _, e := range row {
				if cols[e.Col] {
					buf = append(buf, e)
				}
			}
			row = buf
		}
		out.Rows[v] = clipped(matrix.FilterRowAppend(f.sr, f.window(slab, v), row, f.rho, &ranks))
	}
	return out
}
