package hopset

import (
	"context"
	"fmt"
	"slices"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// BuildDirect constructs the §4 hopset on the host: the same algorithm
// as the collective Build, computed for all nodes at once on the full
// augmented weight matrix w with the matmul kernels (DESIGN.md §12). The
// returned Artifact is byte-identical to Collect over a collective
// Build's per-node Results on the same (graph, params): every step -
// parameter derivation, k-nearest, the greedy hitting set, bunch-edge
// selection, per-level source detection, and the row merges - mirrors
// Build exactly, and each underlying kernel equals its distributed
// counterpart entry-for-entry.
//
// workers bounds the kernel worker pool (<= 0 means GOMAXPROCS); the
// result is identical for every value. ctx is checked between product
// iterations, so a canceled build unwinds within one multiply.
func BuildDirect(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], p Params, workers int) (*Artifact, error) {
	return BuildDirectFrom(ctx, sr, w, p, nil, workers)
}

// BuildDirectFrom is BuildDirect given a sibling: a completed artifact
// built on the same w whose params differ from p at most in Eps. The bunch
// stage - k-nearest, the hitting set A_1, the pivots and H_0 - depends on
// (w, k) alone, so when sib was built for the same N and K it is read back
// out of sib and only the ε-dependent level loop runs; any other sib
// (including nil) takes the cold path. The result is byte-identical to
// BuildDirect's either way (DESIGN.md §13, "One bunch stage per graph")
// and shares sib's read-only InA1, PV and DPV.
func BuildDirectFrom(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], p Params, sib *Artifact, workers int) (*Artifact, error) {
	sh, err := p.shape(w.N)
	if err != nil {
		return nil, err
	}
	var art *Artifact
	if sib != nil && sib.N == w.N && sib.K == sh.k {
		art = bunchesOf(sib)
	} else if art, err = bunchStage(ctx, sr, w, sh.k, workers); err != nil {
		return nil, err
	}
	art.Beta = sh.beta
	if err := runLevels(ctx, sr, w, art, sh.levels, sh.d, workers); err != nil {
		return nil, err
	}
	return art, nil
}

// bunchStage is the first stage of §4.2.1: k-nearest for all rows at once,
// the greedy hitting set, the pivots and the bunch edges H_0. It returns
// an artifact whose Rows are H_0 and whose level loop has not run.
//
// Nothing in the artifact points into the k-nearest rows, yet the stage
// owns them rather than lending them back: it runs once per engine, so the
// only search their n·k slab could feed is the next build's bunch stage,
// and whether it survives the collections in between is timing. So the
// stage takes KNearestAll, which keeps the slab for it and hands only the
// search's scratch back, and a rebuild costs the same slab bytes every
// time (DESIGN.md §13, "who owns which slab, and for how long"). The row
// merges that follow run on a row pass, like the search.
func bunchStage(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], k, workers int) (*Artifact, error) {
	n := w.N
	knear, err := disttools.KNearestAll[semiring.WH](ctx, sr, w, k, workers)
	if err != nil {
		return nil, fmt.Errorf("hopset: k-nearest: %w", err)
	}
	sets := make([][]int32, n)
	for v := 0; v < n; v++ {
		sv := make([]int32, 0, len(knear.Rows[v]))
		for _, e := range knear.Rows[v] {
			sv = append(sv, e.Col)
		}
		sets[v] = sv
	}
	inA1 := hitting.Greedy(n, sets)

	art := &Artifact{
		N:    n,
		K:    k,
		InA1: inA1,
		Rows: make([]matrix.Row[semiring.WH], n),
		PV:   make([]int32, n),
		DPV:  make([]semiring.WH, n),
	}
	// p(v): the closest A_1 node within N_k(v).
	for v := 0; v < n; v++ {
		art.PV[v], art.DPV[v] = -1, semiring.InfWH
		for _, e := range knear.Rows[v] {
			if inA1[e.Col] && semiring.LessWH(e.Val, art.DPV[v]) {
				art.PV[v] = e.Col
				art.DPV[v] = e.Val
			}
		}
	}

	// H_0: bunch edges of nodes outside A_1, symmetrized at both
	// endpoints (the collective version routes each edge to its other
	// end; here we append to both rows directly - MergeRows makes the
	// accumulation order irrelevant).
	h0 := art.Rows
	for v := 0; v < n; v++ {
		if inA1[v] || art.PV[v] < 0 {
			continue
		}
		for _, e := range knear.Rows[v] {
			if e.Col == int32(v) {
				continue
			}
			if e.Val.W < art.DPV[v].W || e.Col == art.PV[v] {
				h0[v] = append(h0[v], matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val.W, H: 1}})
				h0[e.Col] = append(h0[e.Col], matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{W: e.Val.W, H: 1}})
			}
		}
	}
	matmul.RunRows(n, workers, func() func(int) {
		return func(v int) { h0[v] = matrix.MergeRows(sr, h0[v]) }
	})
	return art, nil
}

// bunchesOf reads the bunch stage back out of a completed artifact. Its
// Rows are H_0 merged with the level loop's clique rows, and the two never
// share an entry: a clique edge joins two A_1 nodes (detection runs from
// A_1 sources only), while every bunch edge (u, c) has u outside A_1 (it
// reaches A_1 only at c = p(u)). So dropping the A_1×A_1 entries leaves
// exactly H_0, already merged; rows outside A_1 hold nothing else.
func bunchesOf(sib *Artifact) *Artifact {
	h0 := slices.Clone(sib.Rows)
	for v, in := range sib.InA1 {
		if in {
			h0[v] = slices.DeleteFunc(slices.Clone(h0[v]), func(e matrix.Entry[semiring.WH]) bool { return sib.InA1[e.Col] })
		}
	}
	return &Artifact{N: sib.N, K: sib.K, InA1: sib.InA1, Rows: h0, PV: sib.PV, DPV: sib.DPV}
}

// runLevels is the second, ε-dependent stage: iterated bounded hopsets
// (§4.2.1) over the bunch stage in art. Level ℓ computes d-hop distances
// between A_1 nodes in G ∪ H^{ℓ-1} and replaces the A_1 clique edges with
// the improved estimates, exactly like the collective loop. Only A_1 rows
// carry clique edges, so a level re-merges just the rows whose clique
// edges it changed; one that changes none leaves every later level's
// input, hence output, identical and ends the loop (DESIGN.md §13, "the
// fast build path"). art.Rows goes in as H_0 and comes out as H_0 ∪ H_ℓ;
// a row that gained no clique edge is its H_0 row itself, already merged,
// which over a sibling's bunch stage is the sibling's own row.
func runLevels(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *Artifact, levels, d, workers int) error {
	n, inA1, h0 := art.N, art.InA1, art.Rows
	aRows := make([]matrix.Row[semiring.WH], n)
	g := matrix.New[semiring.WH](n)
	matmul.RunRows(n, workers, func() func(int) {
		return func(v int) { g.Rows[v] = matrix.MergeRows(sr, w.Rows[v], h0[v]) }
	})
	for level := 0; level < levels; level++ {
		det, err := disttools.SourceDetectAllRestricted(ctx, g, inA1, d, workers)
		if err != nil {
			return fmt.Errorf("hopset: level %d source detection: %w", level, err)
		}
		fresh := make([]matrix.Row[semiring.WH], n)
		for v := 0; v < n; v++ {
			if !inA1[v] {
				continue
			}
			for _, e := range det.Rows[v] {
				if e.Col == int32(v) {
					continue
				}
				fresh[v] = append(fresh[v], matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val, H: 1}})
				fresh[e.Col] = append(fresh[e.Col], matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{W: e.Val, H: 1}})
			}
		}
		changed := false
		for v := 0; v < n; v++ {
			row := matrix.MergeRows(sr, fresh[v])
			if slices.Equal(row, aRows[v]) {
				continue
			}
			changed = true
			aRows[v] = row
			g.Rows[v] = matrix.MergeRows(sr, w.Rows[v], h0[v], row)
		}
		if !changed {
			break
		}
	}

	rows := make([]matrix.Row[semiring.WH], n)
	matmul.RunRows(n, workers, func() func(int) {
		return func(v int) {
			if aRows[v] == nil {
				rows[v] = slices.Clip(h0[v])
				return
			}
			rows[v] = matrix.MergeRows(sr, h0[v], aRows[v])
		}
	})
	art.Rows = rows
	return nil
}
