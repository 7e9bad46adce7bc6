package mssp

import (
	"context"
	"fmt"
	"slices"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// MergeGH builds the merged G ∪ H matrix: row v is the semiring merge
// of the graph's weight row and the artifact's hopset row, exactly as
// RunWithHopset's per-node setup computes it. The engine detects over
// OverlayGH's matrix instead, which holds the same least entry per
// column without a second copy of H; MergeGH is the reference that
// benchmark/layers.go and the overlay's tests compare against.
func MergeGH(sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *hopset.Artifact) *matrix.Mat[semiring.WH] {
	g := matrix.New[semiring.WH](w.N)
	matmul.RunRows(w.N, 0, func() func(int) {
		return func(v int) { g.Rows[v] = matrix.MergeRows(sr, w.Rows[v], art.Rows[v]) }
	})
	return g
}

// OverlayGH returns the G ∪ H matrix the direct queries detect sources
// over, holding H once (DESIGN.md §13, "One copy of G ∪ H"). Row v is one
// allocation: the hopset row H[v], then every entry of the base row
// w[v] that H[v] does not dominate - has its column with a value no
// larger. So a row is two column-ordered runs, and a column may appear in
// both when a graph entry is strictly lighter than H's: a built artifact
// never has one (a hopset entry (W, 1) is a path, never above the edge
// in its column), but a snapshot is outside input. Taking the least
// value per column gives MergeGH's row either way, which is all
// SourceDetectPanel reads.
//
// OverlayGH re-points art.Rows[v] to the capacity-clipped H[v] window of
// row v, so art's values - and what the codec writes - do not change; it
// must run before art is shared. Where sib, a completed artifact over
// the same w with G ∪ H matrix sibGH, holds a row equal to art's, the
// overlay takes sib's window and sibGH's row instead of allocating. A
// row with an empty H[v] is w[v] itself, and one whose graph entries are
// all dominated is H[v] itself. The rows run on a row pass of at most
// workers goroutines (<= 0 means GOMAXPROCS).
func OverlayGH(w *matrix.Mat[semiring.WH], art, sib *hopset.Artifact, sibGH *matrix.Mat[semiring.WH], workers int) *matrix.Mat[semiring.WH] {
	g := matrix.New[semiring.WH](w.N)
	matmul.RunRows(w.N, workers, func() func(int) {
		return func(v int) {
			h := art.Rows[v]
			if sib != nil && slices.Equal(h, sib.Rows[v]) {
				art.Rows[v], g.Rows[v] = sib.Rows[v], sibGH.Rows[v]
				return
			}
			row := overlayRow(h, w.Rows[v])
			if len(h) > 0 {
				art.Rows[v] = row[:len(h):len(h)]
			}
			g.Rows[v] = row
		}
	})
	return g
}

// overlayRow is row v of OverlayGH: h, then the entries of base h does
// not dominate, in one allocation of exactly that size.
func overlayRow(h, base matrix.Row[semiring.WH]) matrix.Row[semiring.WH] {
	if len(h) == 0 {
		return base
	}
	extra, i := 0, 0
	for _, e := range base {
		if !dominated(h, &i, e) {
			extra++
		}
	}
	if extra == 0 {
		return slices.Clip(h)
	}
	row := make(matrix.Row[semiring.WH], len(h), len(h)+extra)
	copy(row, h)
	i = 0
	for _, e := range base {
		if !dominated(h, &i, e) {
			row = append(row, e)
		}
	}
	return row
}

// dominated reports whether h holds e's column with a value no larger
// than e's, walking h from *i on past the columns below e's. The walk
// assumes h in column order; were it not, it only keeps more graph
// entries, never drops one h does not dominate.
func dominated(h matrix.Row[semiring.WH], i *int, e matrix.Entry[semiring.WH]) bool {
	for *i < len(h) && h[*i].Col < e.Col {
		*i++
	}
	return *i < len(h) && h[*i].Col == e.Col && !semiring.LessWH(e.Val, h[*i].Val)
}

// RunDirectPanel is the host-side counterpart of RunWithHopset for every
// node at once (DESIGN.md §12), against a prebuilt G ∪ H matrix (see
// OverlayGH) and the artifact's β: β-hop source detection computed with the
// matmul kernels over the source-restricted panel, which propagates only
// the |S| source columns. workers sizes the kernel pool (<= 0 means
// GOMAXPROCS). The panel is the answer itself - cell (v, j) is the weight
// RunWithHopset's Dist row at node v holds for the j-th source,
// semiring.Inf where it holds none - and belongs to the caller, who serves
// it or Releases it.
func RunDirectPanel(ctx context.Context, gh *matrix.Mat[semiring.WH], beta int, inS []bool, workers int) (*disttools.Panel, error) {
	d := beta
	if d > gh.N {
		d = gh.N
	}
	p, err := disttools.SourceDetectPanel(ctx, gh, inS, d, workers)
	if err != nil {
		return nil, fmt.Errorf("mssp: source detection: %w", err)
	}
	return p, nil
}

// RunDirectMerged is RunDirectPanel in row form: row v of the result holds
// (s, w) for every entry (s, (w, h)) of the Dist row RunWithHopset returns
// at node v against the same artifact, in the same order. Hop counts are
// not an output of the direct path.
func RunDirectMerged(ctx context.Context, gh *matrix.Mat[semiring.WH], beta int, inS []bool, workers int) (*matrix.Mat[int64], error) {
	p, err := RunDirectPanel(ctx, gh, beta, inS, workers)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return p.Rows(), nil
}
