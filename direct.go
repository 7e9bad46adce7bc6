package ccsp

import (
	"context"
	"sync"
	"time"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/diameter"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/sssp"
)

// directExec is the ExecDirect backend (DESIGN.md §12): every step is
// computed on flat host-side matrices with the matmul kernels, bypassing
// the per-node simulator. Each method mirrors its simExec sibling step by
// step, or, for the §6 and §7 algorithms, runs the same body over a
// clique.Direct, and hands back the kernels' own matrix; Stats carry no
// rounds or messages, only the wall-clock cost. The weight matrix and its
// routed (first-hop witness) sibling are materialized once on first use
// and immutable afterwards (the graph does not change after newEngine).
type directExec struct {
	g       *graph.Graph
	workers int

	once sync.Once
	w    *matrix.Mat[semiring.WH]
	sr   semiring.AugMinPlus

	routedOnce sync.Once
	routed     *matrix.Mat[semiring.WHF]

	// served is the Served hook of every clique.Direct it detects on (tests).
	served func(w *matrix.Mat[semiring.WH], beta int, inS []bool, certified bool)
}

// materialize computes the weight matrix and the semiring sized for it
// once: the graph is immutable, and Graph.AugSemiring scans every edge.
func (d *directExec) materialize() {
	d.once.Do(func() { d.w, d.sr = d.g.WeightMatrix(), d.g.AugSemiring() })
}

// weightMat returns the cached full augmented weight matrix.
func (d *directExec) weightMat() *matrix.Mat[semiring.WH] {
	d.materialize()
	return d.w
}

// augSemiring returns the cached Graph.AugSemiring.
func (d *directExec) augSemiring() semiring.AugMinPlus {
	d.materialize()
	return d.sr
}

// routedMat returns the cached routed weight matrix (the k-nearest query
// input), so repeated queries stop paying the O(n·deg) row rebuild.
func (d *directExec) routedMat() *matrix.Mat[semiring.WHF] {
	d.routedOnce.Do(func() {
		d.routed = matrix.New[semiring.WHF](d.g.N)
		for v := range d.routed.Rows {
			d.routed.Rows[v] = d.g.WeightRowRouted(v)
		}
	})
	return d.routed
}

// attach derives a loaded entry's query matrices before it is published:
// the weight matrix the artifact was built on (G, or the low-degree
// subgraph G' for artLowDegree, reconstructed from the entry's degs
// vector exactly as the build did) and the G ∪ H overlay the β-hop
// detections run over, which re-points the artifact's rows into its own
// (DESIGN.md §13, "One copy of G ∪ H"). A built entry has both from build.
// A sibling on G lends the overlay every row the two artifacts share; a
// G' entry never takes one, as its base is its own.
func (d *directExec) attach(variant artVariant, ent, sib *artifactEntry) {
	ent.base = d.weightMat()
	if variant == artLowDegree {
		ent.base, sib = apsp.LowDegree(ent.base, ent.degs), nil
	}
	var sibArt *hopset.Artifact
	var sibGH *matrix.Mat[semiring.WH]
	if sib != nil {
		sibArt, sibGH = sib.art, sib.gh
	}
	ent.gh = mssp.OverlayGH(ent.base, ent.art, sibArt, sibGH, d.workers)
}

// direct is the frame around every kernel call: refuse a context that is
// already dead (the kernels only poll between product iterations), time the
// call, and report the wall-clock as the run's Stats - no rounds, no
// messages, so no charged or phase breakdown either (nil). The time rides
// in kernelTime until the Stats leave the engine (Stats.leave).
func direct[T any](ctx context.Context, d *directExec, kernel func() (T, error)) (T, Stats, error) {
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, Stats{}, err
	}
	start := time.Now()
	out, err := kernel()
	return out, Stats{Nodes: d.g.N, Exec: ExecDirect, kernelTime: time.Since(start)}, err
}

// build runs the direct hopset build over the entry's base - G, or G'
// for artLowDegree - and keeps the G ∪ H matrix its level loop swept as
// the entry's gh, so the entry is ready for queries without attach. Over
// a sibling the build reads the sibling's bunch stage back and shares
// its rows outside A_1 (hopset.BuildDirectFrom).
func (d *directExec) build(ctx context.Context, key artifactKey, sib *artifactEntry) (*artifactEntry, error) {
	var sibArt *hopset.Artifact
	var sibGH *matrix.Mat[semiring.WH]
	if sib != nil {
		sibArt, sibGH = sib.art, sib.gh
	}
	ent := &artifactEntry{}
	var err error
	ent.art, ent.stats, err = direct(ctx, d, func() (art *hopset.Artifact, err error) {
		ent.base = d.weightMat()
		if key.variant == artLowDegree {
			ent.degs = make([]int64, ent.base.N)
			for v := range ent.degs {
				ent.degs[v] = int64(len(ent.base.Rows[v])) // the row includes the diagonal: |N(v)|
			}
			ent.base = apsp.LowDegree(ent.base, ent.degs)
		}
		art, ent.gh, err = hopset.BuildDirectFrom(ctx, d.augSemiring(), ent.base, key.params, sibArt, sibGH, d.workers)
		return art, err
	})
	if err != nil {
		return nil, err
	}
	ent.stats = ent.stats.leave()
	return ent, nil
}

// mssp hands back the kernel's own weight plane: its rest state
// semiring.Inf is Unreachable, so the plane is the answer and no cell is
// copied. It is the detection the §6 and §7 bodies run (clique.Direct).
func (d *directExec) mssp(ctx context.Context, ent *artifactEntry, inS []bool) ([]int64, Stats, error) {
	return direct(ctx, d, func() ([]int64, error) {
		c := d.clique(ctx, ent)
		return c.MSSP(inS)
	})
}

func (d *directExec) sssp(ctx context.Context, source int) ([]int64, int, Stats, error) {
	var iters int
	dist, stats, err := direct(ctx, d, func() (dist []int64, err error) {
		w := d.weightMat()
		dist, iters, err = sssp.Exact(clique.NewDirect(ctx, d.augSemiring(), w, nil, 0, d.workers), w, source, 0)
		return dist, err
	})
	return dist, iters, stats, err
}

// apsp hands back the body's own estimate table, rest state
// semiring.Inf, so - as for mssp's plane - no cell is copied.
func (d *directExec) apsp(ctx context.Context, v api.APSPVariant, entG, entLow *artifactEntry) ([]int64, Stats, error) {
	return direct(ctx, d, func() ([]int64, error) {
		g := d.clique(ctx, entG)
		var low clique.Clique
		if entLow != nil {
			l := d.clique(ctx, entLow)
			low = &l
		}
		return apspOn(v, &g, entG.base, low)
	})
}

func (d *directExec) diameter(ctx context.Context, ent *artifactEntry) (int64, Stats, error) {
	return direct(ctx, d, func() (int64, error) {
		c := d.clique(ctx, ent)
		return diameter.Approx(&c)
	})
}

// clique is the host clique on ent's base, detecting over its G ∪ H; a
// value, so that a served MSSP's stays off the heap.
func (d *directExec) clique(ctx context.Context, ent *artifactEntry) clique.Direct {
	c := clique.NewDirect(ctx, d.augSemiring(), ent.base, ent.gh, ent.art.Beta, d.workers)
	c.Served = d.served
	return *c
}

// knearest lends the k-nearest search's own slab; release hands its
// search state back.
func (d *directExec) knearest(ctx context.Context, k int) (*matrix.Mat[semiring.WHF], func(), Stats, error) {
	var release func()
	rows, stats, err := direct(ctx, d, func() (rows *matrix.Mat[semiring.WHF], err error) {
		rows, release, err = disttools.KNearestLent[semiring.WHF](ctx, d.g.RoutedSemiring(), d.routedMat(), k, d.workers)
		return rows, err
	})
	return rows, release, stats, err
}

func (d *directExec) sourceDetect(ctx context.Context, inS []bool, dHops, k int) (*matrix.Mat[semiring.WH], func(), Stats, error) {
	var release func()
	rows, stats, err := direct(ctx, d, func() (rows *matrix.Mat[semiring.WH], err error) {
		rows, release, err = disttools.SourceDetectKLent(ctx, d.augSemiring(), d.weightMat(), inS, dHops, k, d.workers)
		return rows, err
	})
	return rows, release, stats, err
}
