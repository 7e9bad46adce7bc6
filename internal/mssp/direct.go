package mssp

import (
	"context"
	"fmt"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// MergeGH builds the merged G ∪ H matrix the direct MSSP path detects
// sources over: row v is the semiring merge of the graph's weight row
// and the artifact's hopset row, exactly as RunWithHopset's per-node
// setup computes it. The result is immutable and depends only on
// (w, art), so callers serving many queries should build it once and
// reuse it via RunDirectMerged (DESIGN.md §13). The rows are merged on a
// row pass at the default width; MergeGHWorkers bounds it. MergeGH is
// kept with this signature for benchmark/layers.go, its one caller; the
// engine calls MergeGHWorkers.
func MergeGH(sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *hopset.Artifact) *matrix.Mat[semiring.WH] {
	return MergeGHWorkers(sr, w, art, 0)
}

// MergeGHWorkers is MergeGH on a row pass of at most workers goroutines
// (<= 0 means GOMAXPROCS).
func MergeGHWorkers(sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *hopset.Artifact, workers int) *matrix.Mat[semiring.WH] {
	g := matrix.New[semiring.WH](w.N)
	matmul.RunRows(w.N, workers, func() func(int) {
		return func(v int) { g.Rows[v] = matrix.MergeRows(sr, w.Rows[v], art.Rows[v]) }
	})
	return g
}

// RunDirectPanel is the host-side counterpart of RunWithHopset for every
// node at once (DESIGN.md §12), against a prebuilt G ∪ H matrix (see
// MergeGH) and the artifact's β: β-hop source detection computed with the
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
