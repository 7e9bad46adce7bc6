// Direct (host-side) counterparts of the distance tools: the same §3
// algebra computed on whole matrices with the matmul kernels instead of
// per-node collectives. Each function mirrors its distributed sibling
// step by step - same clamping, same iteration counts, same filter
// orders - so the outputs are byte-identical rows for every node (the
// oracle-equivalence guarantee of DESIGN.md §12). The ctx parameter is
// checked between product iterations: these are the long loops of direct
// preprocessing, and a canceled caller unwinds within one multiply.
package disttools

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// KNearestAll solves the k-nearest problem (Theorem 18) for every node at
// once on the host: row v of the result equals what KNearest returns at
// node v. w is the full augmented weight matrix (diagonal included).
// cur ← Filter(cur·cur, k) depends on cur alone, so the first squaring
// that returns its input proves the remaining ones identical and ends
// the loop; over semiring.AugMinPlus a row whose own hop counts prove it
// final is copied instead of computed, and the loop also ends once every
// row is (DESIGN.md §13, "the fast build path").
//
// The caller owns the result: it is a slab of a matmul.Filtered that is
// never released, so nobody writes to it once this call has returned. A
// caller that is done with the rows before it returns, and runs often
// enough for a later loop to take the slabs over, takes KNearestLent
// instead and gives them back.
func KNearestAll[E any](ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], k, workers int) (*matrix.Mat[E], error) {
	knear, _, err := KNearestLent(ctx, sr, w, k, workers)
	return knear, err
}

// KNearestLent is KNearestAll lending its answer: the rows are one of the
// two slabs of a recycled matmul.Filtered, and release hands the whole
// Filtered back for the next product loop to take over (DESIGN.md §13,
// "who owns which slab, and for how long"). Call release at most once,
// after the last read of the rows; it is nil exactly when err is not, and
// a canceled loop has given everything back before it returns.
func KNearestLent[E any](ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], k, workers int) (_ *matrix.Mat[E], release func(), _ error) {
	n := w.N
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// cur and next are the two slabs of one Filtered; the result is one of
	// them.
	f := matmul.NewFiltered(sr, n, k, workers)
	cur := f.FilterCols(w, nil)
	_, certify := any(sr).(semiring.AugMinPlus)
	iters := bits.Len(uint(k - 1)) // ceil(log2 k), as in KNearest
	for t := 0; t < iters; t++ {
		if err := ctx.Err(); err != nil {
			f.Release()
			return nil, nil, err
		}
		if certify && settle(any(cur).(*matrix.Mat[semiring.WH]), f.Final(), 1<<t) {
			break
		}
		next := f.Mul(cur, cur)
		if matrix.Equal[E](sr, next, cur) {
			break
		}
		cur = next
	}
	return cur, f.Release, nil
}

// settle is the hop certificate of the k-nearest loop over
// semiring.AugMinPlus (DESIGN.md §13, "the fast build path", exit 5). cur
// is S_t = Filter_k(D_h), h = 2^t, where D_h is the lexicographic min
// over walks of at most h hops. A node u that Filter_k(D_2h) keeps in
// row v but reaches only in more than h hops has, at hop h of its path,
// a node y with W_y <= W_u and H_y = h < H_u: y ranks strictly before u,
// so S_t[v] holds y with H = h. A row of S_t whose hop counts are all
// below h therefore reaches every kept node within h hops, and every
// later squaring returns it unchanged. settle marks each such row final
// and reports whether every row is.
func settle(cur *matrix.Mat[semiring.WH], final []bool, h int64) bool {
	all := true
	for v, row := range cur.Rows {
		if !final[v] {
			final[v] = !slices.ContainsFunc(row, func(e matrix.Entry[semiring.WH]) bool { return e.Val.H >= h })
			all = all && final[v]
		}
	}
	return all
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
	// included for sources via the diagonal of G).
	for v := 0; v < n; v++ {
		base := v * q
		for _, e := range g.Rows[v] {
			if j := idx[e.Col]; j >= 0 {
				cur[base+int(j)] = e.Val.W
			}
		}
	}
	indices.Put(idx)
	for i := 1; i < d; i++ {
		if err := ctx.Err(); err != nil {
			planes.Put(cur)
			planes.Put(next)
			return nil, err
		}
		var changed atomic.Bool
		matmul.RunRows(n, workers, func() func(int) {
			return func(v int) {
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
		})
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
// returns at node v. Like KNearestAll it stops at the first fixed point
// of u ← Filter(w·u, k), since w and k never change between steps. The
// answer is lent, with KNearestLent's release; a caller that never calls
// release owns the rows.
func SourceDetectKLent[E any](ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], inS []bool, d, k, workers int) (_ *matrix.Mat[E], release func(), _ error) {
	n := w.N
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// No iterate has an entry outside the source columns, so FilterCols
	// gives rows room for the smaller of k and |S|, whatever k was asked.
	f := matmul.NewFiltered(sr, n, k, workers)
	u := f.FilterCols(w, inS)
	for i := 1; i < d; i++ {
		if err := ctx.Err(); err != nil {
			f.Release()
			return nil, nil, err
		}
		next := f.Mul(w, u)
		if matrix.Equal[E](sr, next, u) {
			break
		}
		u = next
	}
	return u, f.Release, nil
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
