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
// the loop (DESIGN.md §13, "the fast build path").
func KNearestAll[E any](ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], k, workers int) (*matrix.Mat[E], error) {
	n := w.N
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	cur := matmul.FilterCols(sr, w, nil, k)
	iters := bits.Len(uint(k - 1)) // ceil(log2 k), as in KNearest
	for t := 0; t < iters; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := matmul.KernelMulFiltered(sr, cur, cur, k, workers)
		if matrix.Equal[E](sr, next, cur) {
			break
		}
		cur = next
	}
	return cur, nil
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

// Panel is the dense answer of a source-restricted detection: W and H are
// row-major n×|S| panels, cell v·|S|+j holding node v's (weight, hops) to
// Sources[j], both semiring.Inf where v does not detect it. Sources is
// ascending and Col, one entry per node, is its inverse (-1 for a
// non-source). The panels are
// the kernel's own buffers, handed over: the caller owns them, and the
// query path serves W itself as the answer (DESIGN.md §13, "the result
// path").
type Panel struct {
	Sources []int32
	Col     []int32
	W, H    []int64
}

// SourceDetectPanel solves (S,d,|S|)-source detection over the
// augmented semiring exactly like SourceDetectAll, but propagates only
// the |S| source columns through the d iterations as a flat n×|S| panel
// (DESIGN.md §13). The sparse iteration U_i = G·U_{i-1} never grows
// support beyond the source columns, so restricting the representation
// to those columns - two struct-of-arrays (weight, hops) panels, one
// read and one written per step - changes nothing about the result: row
// v of Rows() is entry-for-entry identical to SourceDetectAll's,
// while each step does tight O(nnz(G)·|S|) flat work with zero
// allocations. The two panel shortcuts mirror the specialized kernel's
// (matmul/dense.go): products saturating at or above semiring.Inf are
// skipped (the sparse path drops them at every per-step emit), and the
// (Inf, Inf) rest state doubles as "no entry".
//
// The iteration also stops at its fixed point: U_i = G·U_{i-1}, so an
// iteration that changes no cell makes every later iterate identical and
// the remaining steps are dead work. Hopset-augmented graphs converge in
// far fewer than β steps (the hopset's whole point), so this routinely
// saves most of the d-1 iterations without changing a single entry.
func SourceDetectPanel(ctx context.Context, g *matrix.Mat[semiring.WH], inS []bool, d, workers int) (*Panel, error) {
	n := g.N
	srcs := make([]int32, 0, n)
	idx := make([]int32, n)
	for v := 0; v < n; v++ {
		idx[v] = -1
		if inS[v] {
			idx[v] = int32(len(srcs))
			srcs = append(srcs, int32(v))
		}
	}
	q := len(srcs)
	if q == 0 {
		return &Panel{Col: idx}, nil
	}
	curW := make([]int64, n*q)
	curH := make([]int64, n*q)
	nextW := make([]int64, n*q)
	nextH := make([]int64, n*q)
	for i := range curW {
		curW[i] = semiring.Inf
		curH[i] = semiring.Inf
	}
	// U_1: row v of G restricted to source columns (self-distance (0,0)
	// included for sources via the diagonal of G).
	for v := 0; v < n; v++ {
		base := v * q
		for _, e := range g.Rows[v] {
			if j := idx[e.Col]; j >= 0 {
				curW[base+int(j)] = e.Val.W
				curH[base+int(j)] = e.Val.H
			}
		}
	}
	for i := 1; i < d; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var changed atomic.Bool
		matmul.RunRows(n, workers, func() func(int) {
			return func(v int) {
				base := v * q
				rw := nextW[base : base+q]
				rh := nextH[base : base+q]
				for j := range rw {
					rw[j] = semiring.Inf
					rh[j] = semiring.Inf
				}
				for _, es := range g.Rows[v] {
					tb := int(es.Col) * q
					ew, eh := es.Val.W, es.Val.H
					for j := 0; j < q; j++ {
						cw := curW[tb+j]
						if cw >= semiring.Inf {
							continue
						}
						w := ew + cw
						if w >= semiring.Inf || w > rw[j] {
							continue
						}
						h := eh + curH[tb+j]
						if w < rw[j] || h < rh[j] {
							rw[j], rh[j] = w, h
						}
					}
				}
				if !changed.Load() {
					for j := 0; j < q; j++ {
						if rw[j] != curW[base+j] || rh[j] != curH[base+j] {
							changed.Store(true)
							break
						}
					}
				}
			}
		})
		curW, nextW = nextW, curW
		curH, nextH = nextH, curH
		if !changed.Load() {
			break
		}
	}
	return &Panel{Sources: srcs, Col: idx, W: curW, H: curH}, nil
}

// Rows is the adapter for callers that consume detection rows rather than
// the panel (the hopset build, the reference comparison): the sparse
// matrix over one backing array, row v holding (s, (w, h)) for every
// source v detects, ascending by s; a row with no entry stays nil, as in
// SourceDetect.
func (p *Panel) Rows() *matrix.Mat[semiring.WH] {
	n, q := len(p.Col), len(p.Sources)
	out := matrix.New[semiring.WH](n)
	total := 0
	for _, w := range p.W {
		if w < semiring.Inf {
			total++
		}
	}
	backing := make([]matrix.Entry[semiring.WH], 0, total)
	for v := 0; v < n; v++ {
		base, start := v*q, len(backing)
		for j, s := range p.Sources {
			if w := p.W[base+j]; w < semiring.Inf {
				backing = append(backing, matrix.Entry[semiring.WH]{Col: s, Val: semiring.WH{W: w, H: p.H[base+j]}})
			}
		}
		if end := len(backing); end > start {
			out.Rows[v] = backing[start:end:end]
		}
	}
	return out
}

// SourceDetectAllRestricted is SourceDetectPanel in row form: row v of
// the result equals what SourceDetect returns at node v.
func SourceDetectAllRestricted(ctx context.Context, g *matrix.Mat[semiring.WH], inS []bool, d, workers int) (*matrix.Mat[semiring.WH], error) {
	p, err := SourceDetectPanel(ctx, g, inS, d, workers)
	if err != nil {
		return nil, err
	}
	return p.Rows(), nil
}

// SourceDetectKAll solves (S,d,k)-source detection (Theorem 19, first
// variant) for every node at once: row v equals what SourceDetectK
// returns at node v. Like KNearestAll it stops at the first fixed point
// of u ← Filter(w·u, k), since w and k never change between steps.
func SourceDetectKAll[E any](ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], inS []bool, d, k, workers int) (*matrix.Mat[E], error) {
	n := w.N
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	u := matmul.FilterCols(sr, w, inS, k)
	for i := 1; i < d; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := matmul.KernelMulFiltered(sr, w, u, k, workers)
		if matrix.Equal[E](sr, next, u) {
			break
		}
		u = next
	}
	return u, nil
}

// DistThroughSetsAll solves distance-through-sets (Theorem 20) for every
// node at once: ests[v] is node v's estimate list, and row v of the
// result equals what DistThroughSets returns at node v. W2 rows are
// assembled in ascending sender order, matching the Sync inbox ordering
// of the collective version.
func DistThroughSetsAll(ctx context.Context, sr semiring.MinPlus, n int, ests [][]Est, workers int) (*matrix.Mat[int64], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Both matrices hold one entry per estimate: count, then fill one
	// backing array each (as Mat.Transpose does).
	total := 0
	count := make([]int, n)
	for _, es := range ests {
		total += len(es)
		for _, e := range es {
			count[e.W]++
		}
	}
	back1 := make([]matrix.Entry[int64], 0, total)
	back2 := make([]matrix.Entry[int64], total)
	w1 := matrix.New[int64](n)
	w2 := matrix.New[int64](n)
	off := 0
	for u, c := range count {
		w2.Rows[u] = back2[off : off : off+c]
		off += c
	}
	for v := 0; v < n; v++ {
		start := len(back1)
		for _, e := range ests[v] {
			back1 = append(back1, matrix.Entry[int64]{Col: e.W, Val: e.To})
			w2.Rows[e.W] = append(w2.Rows[e.W], matrix.Entry[int64]{Col: int32(v), Val: e.From})
		}
		w1.Rows[v] = matrix.SortRow(back1[start:len(back1):len(back1)])
	}
	return matmul.KernelMul(sr, w1, w2, workers), nil
}
