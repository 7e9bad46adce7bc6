// Direct (host-side) counterparts of the distance tools: the same §3
// algebra computed on whole matrices with the matmul kernels instead of
// per-node collectives, so the outputs are byte-identical rows for every
// node (the oracle-equivalence guarantee of DESIGN.md §12). Detection and
// distance through sets mirror their distributed siblings step by step -
// same clamping, same iteration counts, same filter orders; the filtered
// products of (S,d,k)-detection run as sweeps of a k-wide rank panel
// whose rows are the filtered iterates themselves. k-nearest is the one
// tool computed by another algorithm: ⌈log₂ k⌉ filtered squarings return
// each row's k least entries over all walks, and a truncated
// lexicographic Dijkstra per row returns exactly those (nearest.go;
// DESIGN.md §13, "the fast build path", exit 5). The ctx parameter is
// checked between product iterations and sweeps, and between row blocks
// of a search: these are the long loops of direct preprocessing, and a
// canceled caller unwinds within one multiply, one sweep or one block.

package disttools

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// KNearestAll solves the k-nearest problem (Theorem 18) for every node at
// once on the host: row v of the result equals what KNearest returns at
// node v. w is an augmented weight matrix whose every non-empty row holds
// its (0, 0) and whose every off-diagonal entry has H >= 1 - a graph's, a
// graph merged with a hopset, or the §6.3 subgraph G', whose high-degree
// rows are nil. ⌈log₂ k⌉ filtered squarings return Filter_k(D_∞), the
// least k entries of every row's walks under the (Rank, column) order, so
// a row is computed as such: by a lexicographic Dijkstra from its source
// that settles k nodes (DESIGN.md §13, "the fast build path", exit 5).
// Rows run on a row pass and ctx is polled once per block of rows.
//
// The caller owns the result: the search state gives its scratch back
// but not the slab and header the rows live in, so nobody writes to them
// once this call has returned. A caller that is done with the rows before
// it returns, and runs often enough for a later search to take the slab
// over, takes KNearestLent instead and gives it back. No product code
// calls it: the hopset build keeps its rows as KNearestRanks', and the
// serving paths lend theirs; it stays for the benchmark harness, which
// times it under this signature, and as the tests' form of the answer.
func KNearestAll[E any](ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], k, workers int) (*matrix.Mat[E], error) {
	nb := takeNearest[E](w.N)
	defer nb.release()
	knear, err := nb.knearest(ctx, sr, w, max(1, min(k, w.N)), workers)
	if err == nil {
		nb.out, nb.slab = nil, nil // handed over: only the scratch goes back
	}
	return knear, err
}

// KNearestLent is KNearestAll lending its answer: the rows are the slab of
// a recycled search state, and release hands the whole state - slab,
// header and per-worker scratch - back for the next search to take over
// (DESIGN.md §13, "who owns which slab, and for how long"). Call release
// at most once, after the last read of the rows; it is nil exactly when
// err is not, and a canceled search has given everything back before it
// returns.
func KNearestLent[E any](ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], k, workers int) (_ *matrix.Mat[E], release func(), _ error) {
	nb := takeNearest[E](w.N)
	knear, err := nb.knearest(ctx, sr, w, max(1, min(k, w.N)), workers)
	if err != nil {
		nb.release()
		return nil, nil, err
	}
	return knear, nb.release, nil
}

// KNearestRanks is KNearestAll's answer as its searches keep it: row v is
// cols[v], its nodes in the order the search settled them - those tied
// at the k-th rank that did not all fit come last, the lowest columns in
// column order - and ranks[v] their ranks, which sr.Unrank decodes to
// their values, so ranks never decrease along a row. A kept node costs a
// 4-byte column and an 8-byte rank where an Entry costs 24: the rows are
// windows of one n·k slab of each, which the caller owns, as
// KNearestAll's. It is the same search; only what a row keeps differs.
// sr's MaxH must be at least n - 2, as a graph's AugSemiring's is, for a
// rank to hold the value of every path a search keeps.
func KNearestRanks(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], k, workers int) (cols [][]int32, ranks [][]int64, err error) {
	n := w.N
	if int64(n) > sr.MaxH+2 { // decoder's condition
		return nil, nil, fmt.Errorf("disttools: ranks of %d-node paths need MaxH >= %d, have %d", n, n-2, sr.MaxH)
	}
	k = max(1, min(k, n))
	nb := takeNearest[semiring.WH](n)
	defer nb.release()
	colSlab, rankSlab := make([]int32, n*k), make([]int64, n*k)
	cols, ranks = make([][]int32, n), make([][]int64, n)
	err = nb.pass(ctx, sr, w, k, workers, keepFunc[semiring.WH](func(s *searcher[semiring.WH], v int, got []int32) {
		if len(got) == 0 {
			return // the all-zero row
		}
		c, r := colSlab[v*k:v*k+len(got):v*k+len(got)], rankSlab[v*k:v*k+len(got):v*k+len(got)]
		for i, u := range got {
			c[i], r[i] = u, s.key[u]
		}
		cols[v], ranks[v] = c, r
	}))
	if err != nil {
		return nil, nil, err
	}
	return cols, ranks, nil
}

// SourceDetectAll solves (S,d,|S|)-source detection (Theorem 19, second
// variant) for every node at once: row v of the result equals what
// SourceDetect returns at node v. g is the full augmented weight matrix
// of the graph (which may include hopset edges). It is the sparse
// reference SourceDetectAllRestricted is verified against; the build and
// query paths all run the restricted panel.
func SourceDetectAll[E any](ctx context.Context, sr semiring.Semiring[E], g *matrix.Mat[E], inS []bool, d, workers int) (*matrix.Mat[E], error) {
	n := g.N
	nS := 0
	for _, s := range inS {
		if s {
			nS++
		}
	}
	u := matrix.New[E](n)
	if nS == 0 {
		return u, nil // every per-node row is nil, as in SourceDetect
	}
	for v := 0; v < n; v++ {
		row := make(matrix.Row[E], 0, nS)
		for _, e := range g.Rows[v] {
			if inS[e.Col] {
				row = append(row, e)
			}
		}
		u.Rows[v] = row
	}
	for i := 1; i < d; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		u = matmul.KernelMul(sr, g, u, workers)
	}
	return u, nil
}

// Panel is the dense answer of a source-restricted detection: W is the
// row-major N×|S| weight plane, cell v·|S|+j holding node v's distance to
// Sources[j], semiring.Inf where v does not detect it. Sources is
// ascending. Hop counts are not an output: with k = |S| nothing is
// filtered, so no weight ever depends on one, and no caller reads them
// (DESIGN.md §13, "source-restricted detection").
//
// W is the kernel's own buffer, handed over: the caller owns it. An MSSP
// query serves it as the answer, and gives it back through ReleasePlane
// only where the answer is lent - once the one caller that reads it has
// written it out (DESIGN.md §13, "the result path"); a caller that only
// reads the panel calls Release when its last reader is done, or
// ReleasePlane if it kept only W.
type Panel struct {
	N       int
	Sources []int32
	W       []int64
}

// Col is the panel column of source s, -1 when s is not a source.
func (p *Panel) Col(s int32) int {
	if j, ok := slices.BinarySearch(p.Sources, s); ok {
		return j
	}
	return -1
}

// Release recycles W as a later detection's plane. The panel, and every
// slice of W, is dead afterwards.
func (p *Panel) Release() {
	planes.Put(p.W)
	p.W = nil
}

// SourceDetectPanel solves (S,d,|S|)-source detection over the
// augmented semiring like SourceDetectAll, but propagates only the |S|
// source columns through the d iterations, and only their weights, as a
// flat n×|S| plane (DESIGN.md §13). The sparse iteration U_i = G·U_{i-1}
// never grows support beyond the source columns, and without a filter
// the weight of an entry of U_i is a function of the weights of U_{i-1}
// alone - the hop component only breaks ties between equal weights - so
// one weight plane read and one written per step reproduce the support
// and the weights of SourceDetectAll's rows exactly, while each step
// does tight O(nnz(G)·|S|) flat work. semiring.Inf = 2^60 is both the
// rest state ("no entry") and the saturation test: Inf plus a weight
// never undercuts a cell and cannot overflow, which is how the sparse
// path's dropping of saturated products comes out of the one comparison.
// Every step takes the least weight per column, so a row of g may hold a
// column twice and in any order: the engine's G ∪ H row is the hopset
// row followed by the graph entries it does not dominate, two
// column-ordered runs (hopset.OverlayRow; DESIGN.md §13, "One copy of
// G ∪ H").
//
// The iteration also stops at its fixed point: an iteration that changes
// no weight makes every later iterate identical and the remaining steps
// are dead work. Hopset-augmented graphs converge in far fewer than β
// steps (the hopset's whole point), so this routinely saves most of the
// d-1 iterations without changing a single entry. The weights settle no
// later than the (weight, hops) pairs do.
//
// Of the two planes one leaves as the answer; the other, and the n-sized
// column index, are scratch and go back to the pool on every return,
// cancellation included. A warm call allocates the answer plane, the |S|
// source IDs and nothing that grows with n besides.
func SourceDetectPanel(ctx context.Context, g *matrix.Mat[semiring.WH], inS []bool, d, workers int) (*Panel, error) {
	n := g.N
	q := 0
	for v := 0; v < n; v++ {
		if inS[v] {
			q++
		}
	}
	if q == 0 {
		return &Panel{N: n}, nil
	}
	srcs := make([]int32, 0, q)
	idx := indices.Get(n)
	for v := 0; v < n; v++ {
		idx[v] = -1
		if inS[v] {
			idx[v] = int32(len(srcs))
			srcs = append(srcs, int32(v))
		}
	}
	cur, next := planes.Get(n*q), planes.Get(n*q)
	for i := range cur {
		cur[i] = semiring.Inf
	}
	// U_1: row v of G restricted to source columns (self-distance 0
	// included for sources via the diagonal of G), the least weight where
	// the row repeats a column.
	for v := 0; v < n; v++ {
		base := v * q
		for _, e := range g.Rows[v] {
			if j := idx[e.Col]; j >= 0 {
				cur[base+int(j)] = min(cur[base+int(j)], e.Val.W)
			}
		}
	}
	indices.Put(idx)
	// One row function serves every sweep and every pass worker (it keeps
	// no scratch), so a serial sweep allocates nothing.
	var changed atomic.Bool
	sweep := func(v int) {
		base := v * q
		rw := next[base : base+q]
		for j := range rw {
			rw[j] = semiring.Inf
		}
		for _, es := range g.Rows[v] {
			ew := es.Val.W
			cw := cur[int(es.Col)*q:][:len(rw)]
			for j, c := range cw {
				if w := ew + c; w < rw[j] {
					rw[j] = w
				}
			}
		}
		if !changed.Load() && !slices.Equal(rw, cur[base:base+q]) {
			changed.Store(true)
		}
	}
	worker := func() func(int) { return sweep }
	for i := 1; i < d; i++ {
		if err := ctx.Err(); err != nil {
			planes.Put(cur)
			planes.Put(next)
			return nil, err
		}
		changed.Store(false)
		matmul.RunRows(n, workers, worker)
		cur, next = next, cur
		if !changed.Load() {
			break
		}
	}
	planes.Put(next)
	return &Panel{N: n, Sources: srcs, W: cur}, nil
}

// Rows is the adapter for callers that consume detection rows rather than
// the panel (the hopset build, the reference comparison): the sparse
// matrix over one backing array, row v holding (s, w) for every source v
// detects, ascending by s; a row with no entry stays nil, as in
// SourceDetect.
func (p *Panel) Rows() *matrix.Mat[int64] {
	q := len(p.Sources)
	out := matrix.New[int64](p.N)
	total := 0
	for _, w := range p.W {
		if w < semiring.Inf {
			total++
		}
	}
	backing := make([]matrix.Entry[int64], 0, total)
	for v := 0; v < p.N; v++ {
		base, start := v*q, len(backing)
		for j, s := range p.Sources {
			if w := p.W[base+j]; w < semiring.Inf {
				backing = append(backing, matrix.Entry[int64]{Col: s, Val: w})
			}
		}
		if end := len(backing); end > start {
			out.Rows[v] = backing[start:end:end]
		}
	}
	return out
}

// SourceDetectAllRestricted is SourceDetectPanel in row form: row v of
// the result holds the sources SourceDetect returns at node v with their
// weights.
func SourceDetectAllRestricted(ctx context.Context, g *matrix.Mat[semiring.WH], inS []bool, d, workers int) (*matrix.Mat[int64], error) {
	p, err := SourceDetectPanel(ctx, g, inS, d, workers)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return p.Rows(), nil
}

// SourceDetectKLent solves (S,d,k)-source detection (Theorem 19, first
// variant) for every node at once: row v equals what SourceDetectK
// returns at node v. The d-1 filtered products u ← Filter(w·u, k) run as
// sweeps of a k-wide rank panel (kdetect) and stop at the first sweep
// that changes no row, since w and k never change between steps; ctx is
// polled once before each sweep. Values come back from their ranks, so
// every hop count of an iterate must stay at most sr.MaxH - as it does
// for a graph's weight matrix and d <= n. The answer is lent, with a
// release like KNearestLent's; a caller that never calls release owns
// the rows.
func SourceDetectKLent(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], inS []bool, d, k, workers int) (_ *matrix.Mat[semiring.WH], release func(), _ error) {
	p := takeKDetect(w.N)
	rows, err := p.detect(ctx, sr, w, inS, d, max(1, min(k, w.N)), workers)
	if err != nil {
		p.release()
		return nil, nil, err
	}
	return rows, p.release, nil
}

// kdetect is what successive (S, d, k)-source detections over n nodes
// share: the source index of every column, the two slot planes the
// iterates alternate between, the answer slab under its header and one
// sweeper per pass worker. A released one waits in kdetects and the next
// detection of the same n takes it over (DESIGN.md §13, "who owns which
// slab, and for how long").
type kdetect struct {
	n, k  int
	width int     // min(k, |S|): the slots a row of an iterate has room for
	idx   []int32 // column → source index, -1 off S
	srcs  []int32 // source index → column, ascending
	u     [2]plane
	out   *matrix.Mat[semiring.WH]
	slab  []matrix.Entry[semiring.WH] // answer row v's window is [v·width, v·width + width)

	mu    sync.Mutex
	ws    []*sweeper
	taken int // sweepers handed out in the running pass
}

// plane holds an iterate: row v is lens[v] slots from v·width on,
// ascending by source index, kth[v] is its k-th rank once it holds k
// slots, unreached before, and moved[v] reports whether it differs from
// row v of the iterate before.
type plane struct {
	slots []slot
	lens  []int32
	kth   []int64
	moved []bool
	full  atomic.Bool // some row holds k slots
}

// row is row v of the iterate.
func (u *plane) row(v, width int) []slot { return u.slots[v*width:][:u.lens[v]] }

// slot is an entry of an iterate: the rank of node v's distance to source
// j, and j.
type slot struct {
	rank int64
	j    int32
}

// sweeper is one pass worker's scratch, sized by |S|: a rank accumulator
// per source, at rest unreached, the bitmap of the sources a row reached,
// the row built from them and the cutoff's rank scratch.
type sweeper struct {
	acc  []int64
	mark []uint64
	row  []slot
	sel  []int64
}

var kdetects sync.Pool // of *kdetect

// takeKDetect returns a released kdetect of n nodes, or a new one.
func takeKDetect(n int) *kdetect {
	if p, _ := kdetects.Get().(*kdetect); p != nil && p.n == n {
		return p
	}
	return &kdetect{n: n, idx: make([]int32, n), out: matrix.New[semiring.WH](n)}
}

// release gives p back for a later detection to take over. Every row p
// handed out is dead from then on, and so is p.
func (p *kdetect) release() { kdetects.Put(p) }

// worker hands the calling pass goroutine a sweeper of its own with room
// for q sources.
func (p *kdetect) worker(q int) *sweeper {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.taken == len(p.ws) {
		p.ws = append(p.ws, new(sweeper))
	}
	s := p.ws[p.taken]
	p.taken++
	if len(s.acc) < q {
		s.acc, s.mark = make([]int64, q), make([]uint64, (q+63)/64)
		s.row, s.sel = make([]slot, 0, q), make([]int64, q)
		for j := range s.acc {
			s.acc[j] = unreached
		}
	}
	return s
}

// grow returns b resized to n, reallocated only when too small.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// detect computes U_1, the first k slots of every row of w restricted to
// S, then sweeps until U_d or a fixed point, and decodes the last iterate
// into the answer slab.
func (p *kdetect) detect(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], inS []bool, d, k, workers int) (*matrix.Mat[semiring.WH], error) {
	n := p.n
	p.srcs = p.srcs[:0]
	for v, in := range inS {
		p.idx[v] = -1
		if in {
			p.idx[v] = int32(len(p.srcs))
			p.srcs = append(p.srcs, int32(v))
		}
	}
	q := len(p.srcs)
	p.k, p.width = k, min(k, q)
	for i := range p.u {
		u := &p.u[i]
		u.slots, u.lens, u.kth, u.moved = grow(u.slots, n*p.width), grow(u.lens, n), grow(u.kth, n), grow(u.moved, n)
	}
	p.u[0].full.Store(false)
	p.pass(q, workers, func(s *sweeper, v int) {
		row := s.row[:0]
		for _, e := range w.Rows[v] {
			if j := p.idx[e.Col]; j >= 0 {
				row = append(row, slot{sr.Rank(e.Val), j})
			}
		}
		p.put(s, &p.u[0], v, row)
		p.u[0].moved[v] = true
	})
	cur, next := &p.u[0], &p.u[1]
	for i := 1; i < d; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !p.sweep(sr, w, cur, next, q, workers) {
			break
		}
		cur, next = next, cur
	}
	p.slab = grow(p.slab, n*p.width)
	p.pass(q, workers, func(_ *sweeper, v int) {
		p.out.Rows[v] = nil // the all-zero row
		if got := cur.row(v, p.width); len(got) > 0 {
			row := p.slab[v*p.width:][:len(got):len(got)]
			for i, sl := range got {
				row[i] = matrix.Entry[semiring.WH]{Col: p.srcs[sl.j], Val: sr.Unrank(sl.rank)}
			}
			p.out.Rows[v] = row
		}
	})
	return p.out, nil
}

// pass runs row on every row on a row pass, each pass goroutine with a
// sweeper of its own.
func (p *kdetect) pass(q, workers int, row func(s *sweeper, v int)) {
	p.taken = 0
	matmul.RunRows(p.n, workers, func() func(int) {
		s := p.worker(q)
		return func(v int) { row(s, v) }
	})
}

// sweep computes next = Filter(w·U, k) from cur = U and reports whether
// any row moved. Row v of the product is a function of the rows of U its
// arcs name alone, so while none of those moved it is row v of U again
// and is copied, not computed.
func (p *kdetect) sweep(sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], cur, next *plane, q, workers int) bool {
	var changed atomic.Bool
	next.full.Store(false)
	full := cur.full.Load()
	p.pass(q, workers, func(s *sweeper, v int) {
		was := cur.row(v, p.width)
		next.moved[v] = false
		if !slices.ContainsFunc(w.Rows[v], func(e matrix.Entry[semiring.WH]) bool { return cur.moved[e.Col] }) {
			p.put(s, next, v, was)
			return
		}
		if got := p.put(s, next, v, s.gather(sr, w.Rows[v], cur, p.width, q, full)); !slices.Equal(got, was) {
			next.moved[v] = true
			if !changed.Load() {
				changed.Store(true)
			}
		}
	})
	return changed.Load()
}

// gather returns row wrow·U unfiltered, ascending by source: for every
// source j, the least rank sum rank(w(v,x)) + rank(U(x,j)), exactly the
// rank of the product's value while hop counts stay at most MaxH. Once
// some row of U is full it skips every sum above τ_v, the least
// rank(w(v,x)) + kth(x) over full rows x: each proves k sources at or
// below it, so nothing above τ_v survives the filter. Sums at τ_v are
// kept, whatever their source, so the cutoff's lowest-source rule sees
// every tie.
func (s *sweeper) gather(sr semiring.AugMinPlus, wrow matrix.Row[semiring.WH], u *plane, width, q int, full bool) []slot {
	tau := int64(unreached)
	if full {
		for _, e := range wrow {
			if t := u.kth[e.Col]; t != unreached {
				tau = min(tau, sr.Rank(e.Val)+t)
			}
		}
	}
	acc, mark := s.acc, s.mark[:(q+63)/64]
	for _, e := range wrow {
		a := sr.Rank(e.Val)
		for _, sl := range u.row(int(e.Col), width) {
			if c := a + sl.rank; c <= tau {
				acc[sl.j] = min(acc[sl.j], c)
				mark[sl.j>>6] |= 1 << (sl.j & 63)
			}
		}
	}
	row := s.row[:0]
	for i, word := range mark {
		for ; word != 0; word &= word - 1 {
			j := int32(i<<6 | bits.TrailingZeros64(word))
			row = append(row, slot{acc[j], j})
			acc[j] = unreached
		}
		mark[i] = 0
	}
	return row
}

// put files row, ascending by source index, as row v of u: all of it when
// it holds at most k slots, its Lemma 15 cutoff at k otherwise (every
// slot ranked below the k-th rank, then the lowest tied sources). It
// returns the filed row.
func (p *kdetect) put(s *sweeper, u *plane, v int, row []slot) []slot {
	kth := int64(unreached)
	dst := u.slots[v*p.width:][:0:p.width]
	if len(row) > p.k {
		sel := s.sel[:len(row)]
		for i, sl := range row {
			sel[i] = sl.rank
		}
		cut, ties := matrix.Cutoff(sel, p.k)
		for _, sl := range row {
			if sl.rank < cut || sl.rank == cut && ties > 0 {
				if sl.rank == cut {
					ties--
				}
				dst = append(dst, sl)
			}
		}
		kth = cut
	} else {
		dst = append(dst, row...)
		if len(row) == p.k {
			kth = 0
			for _, sl := range row {
				kth = max(kth, sl.rank)
			}
		}
	}
	u.lens[v], u.kth[v] = int32(len(dst)), kth
	if kth != unreached && !u.full.Load() {
		u.full.Store(true)
	}
	return dst
}

// FoldThroughSets solves distance-through-sets (Theorem 20) for every
// node at once and folds the answer into the dense estimate rows instead
// of returning it: rows[v][u] = min(rows[v][u], δ(v,w) + δ(w,u)) over the
// w in W_v ∩ W_u. Row v of sets is W_v with v's estimates, read through
// weight; estimates are symmetric (δ(v,w) = δ(w,v), as between the nodes
// of an undirected graph), so W_1 is sets itself and W_2 its by-member
// transpose, built once. Afterwards a table that started at rest holds
// exactly what DistThroughSets returns at each node, semiring.Inf where
// that row has no entry. ctx is polled once, before the product.
func FoldThroughSets[E any](ctx context.Context, rows [][]int64, sets *matrix.Mat[E], weight func(E) int64, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	matmul.FoldMinPlus(rows, sets, weight, transposeWeights(sets, weight), workers)
	return nil
}

// transposeWeights returns W_2 of Theorem 20: row w holds (v, δ(v,w)) for
// every v with w in W_v, ascending by v - the Sync inbox order of the
// collective version - all rows cut from one backing array.
func transposeWeights[E any](sets *matrix.Mat[E], weight func(E) int64) *matrix.Mat[int64] {
	n := sets.N
	count, total := make([]int, n), 0
	for _, row := range sets.Rows {
		total += len(row)
		for _, e := range row {
			count[e.Col]++
		}
	}
	w2 := matrix.New[int64](n)
	backing := make([]matrix.Entry[int64], total)
	off := 0
	for u, c := range count {
		w2.Rows[u] = backing[off : off : off+c]
		off += c
	}
	for v, row := range sets.Rows {
		for _, e := range row {
			w2.Rows[e.Col] = append(w2.Rows[e.Col], matrix.Entry[int64]{Col: int32(v), Val: weight(e.Val)})
		}
	}
	return w2
}
