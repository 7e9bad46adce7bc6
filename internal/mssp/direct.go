package mssp

import (
	"context"
	"fmt"
	"slices"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// MergeGH builds the merged G ∪ H matrix: row v is the semiring merge
// of the graph's weight row and the artifact's hopset row, exactly as
// RunWithHopset's per-node setup computes it. The engine detects over
// its overlay instead (hopset.OverlayRow: a direct build returns it,
// OverlayGH derives it for a loaded artifact), which holds the same least
// entry per column without a second copy of H; MergeGH is the reference
// that benchmark/layers.go and the overlay's tests compare against.
func MergeGH(sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *hopset.Artifact) *matrix.Mat[semiring.WH] {
	g := matrix.New[semiring.WH](w.N)
	pool.RunRows(w.N, 0, func() func(int) {
		return func(v int) { g.Rows[v] = matrix.MergeRows(sr, w.Rows[v], art.Rows[v]) }
	})
	return g
}

// OverlayGH returns the G ∪ H matrix the direct queries detect sources
// over for an artifact that was not built here - one loaded from a
// snapshot - holding H once (DESIGN.md §13, "One copy of G ∪ H"): row v
// is hopset.OverlayRow of H[v] over w[v], the layout a direct build
// returns its G ∪ H in. Taking the least value per column gives MergeGH's
// row, which is all SourceDetectPanel reads.
//
// OverlayGH re-points art.Rows[v] to the capacity-clipped H[v] window of
// row v, so art's values - and what the codec writes - do not change; it
// must run before art is shared. Where sib, a completed artifact over
// the same w with G ∪ H matrix sibGH, holds a row equal to art's, the
// overlay takes sib's window and sibGH's row instead of allocating. The
// rows run on a row pass of at most workers goroutines (<= 0 means
// GOMAXPROCS).
func OverlayGH(w *matrix.Mat[semiring.WH], art, sib *hopset.Artifact, sibGH *matrix.Mat[semiring.WH], workers int) *matrix.Mat[semiring.WH] {
	g := matrix.New[semiring.WH](w.N)
	pool.RunRows(w.N, workers, func() func(int) {
		return func(v int) {
			h := art.Rows[v]
			if sib != nil && slices.Equal(h, sib.Rows[v]) {
				art.Rows[v], g.Rows[v] = sib.Rows[v], sibGH.Rows[v]
				return
			}
			row := hopset.OverlayRow(h, w.Rows[v])
			if len(h) > 0 {
				art.Rows[v] = row[:len(h):len(h)]
			}
			g.Rows[v] = row
		}
	})
	return g
}

// RunDirectPanel is the host-side counterpart of RunWithHopset for every
// node at once (DESIGN.md §12), against a prebuilt G ∪ H matrix (see
// hopset.OverlayRow) and the artifact's β: β-hop source detection computed with the
// matmul kernels over the source-restricted panel, which propagates only
// the |S| source columns. workers bounds each row pass (<= 0 means
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

// RunDirect is RunDirectPanel's plane as the engine serves it (DESIGN.md
// §13, "certified cells"), answered by one lexicographic search per source
// over w, the weight matrix of the G that gh is G ∪ H of, wherever that is
// provably the same plane. The certificate lemma: no H edge weighs less
// than d_G between its endpoints, so d^β_{G∪H} >= d_G; G ⊆ G ∪ H, so where
// G has a shortest v–s path of h <= β hops, d^β_{G∪H}(v, s) <= d_G(v, s).
// So a search that settles every node it reaches at a least (W, H) of at
// most min(β, n) hops has computed the β-hop detection's plane, and
// certified reports that it served it. The first node settled past that
// bound stops the searches, and RunDirectPanel computes the whole plane
// instead. The plane belongs to the caller either way.
func RunDirect(ctx context.Context, sr semiring.AugMinPlus, w, gh *matrix.Mat[semiring.WH], beta int, inS []bool, workers int) (plane []int64, certified bool, err error) {
	plane, err = disttools.CertifiedPlane(ctx, sr, w, inS, max(min(beta, gh.N), 1), workers)
	if err != nil {
		return nil, false, fmt.Errorf("mssp: certified search: %w", err)
	}
	if plane != nil {
		return plane, true, nil
	}
	p, err := RunDirectPanel(ctx, gh, beta, inS, workers)
	if err != nil {
		return nil, false, err
	}
	return p.W, false, nil
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
