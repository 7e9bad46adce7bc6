package ccsp

import (
	"context"
	"sync"
	"time"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/diameter"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/sssp"
)

// backend is the one seam between the Engine's public methods and the
// clique the paper's algebra runs on (DESIGN.md §12). Every query kind is
// written once over clique.Clique, and the backend hands it the clique
// Options.Execution names: a clique.Sim, whose Stats are its runs' rounds
// and messages, or a clique.Direct on the host kernels, timed as one call
// with no rounds or messages. Only build, attach and baseEntry have a
// body per mode; the other methods differ by mode in the clique alone. A
// method returns the kind's intermediate rows - the same values on either
// clique, which the differential oracle (direct_test.go,
// FuzzDirectVsSimulated) pins byte for byte - plus the run's Stats. Errors
// come back raw (cc or context sentinels), but for the base entry's build,
// which comes back as Engine.artifact wraps it; validation, artifact
// lookup, result shaping and the wrap into the public error taxonomy live
// once, in the Engine methods.
type backend struct {
	g    *graph.Graph
	opts Options
	// base resolves the engine's base entry (Engine.artifact at baseKey),
	// building it on first need, and beta is its hop bound, derived from
	// the params alone (hopset.Params.Beta), so that a host detection over
	// G needs no entry until its certified searches abort.
	base func(ctx context.Context) (*artifactEntry, error)
	beta int

	// The weight matrix, the semiring sized for it and the routed (first-hop
	// witness) weight matrix are built once on first use and immutable
	// afterwards: the graph does not change after newEngine, and
	// Graph.AugSemiring scans every edge.
	once       sync.Once
	w          *matrix.Mat[semiring.WH]
	sr         semiring.AugMinPlus
	routedOnce sync.Once
	routed     *matrix.Mat[semiring.WHF]

	// served is the Served hook of every clique.Direct it makes (tests).
	served func(w *matrix.Mat[semiring.WH], beta int, inS []bool, certified bool)
}

// weights returns the cached augmented weight matrix and the semiring
// sized for it (Graph.AugSemiring).
func (b *backend) weights() (*matrix.Mat[semiring.WH], semiring.AugMinPlus) {
	b.once.Do(func() { b.w, b.sr = b.g.WeightMatrix(), b.g.AugSemiring() })
	return b.w, b.sr
}

// routedMat returns the cached routed weight matrix (the k-nearest query
// input), so repeated queries stop paying the O(n·deg) row rebuild.
func (b *backend) routedMat() *matrix.Mat[semiring.WHF] {
	b.routedOnce.Do(func() {
		b.routed = matrix.New[semiring.WHF](b.g.N)
		for v := range b.routed.Rows {
			b.routed.Rows[v] = b.g.WeightRowRouted(v)
		}
	})
	return b.routed
}

// build constructs the entry for key, ready for queries: the hopset
// artifact (§4), for artLowDegree the degree vector that defines G', the
// base the artifact was built on (G, or G'), the run's Stats and, on the
// host, the G ∪ H its level loop swept (hopset.BuildDirectFrom), so that
// the entry needs no attach. sib, if not nil, is a completed entry of
// key's variant whose params differ from key's only in ε: the host build
// runs only the level loop over its bunch stage and shares its rows
// outside A_1; the simulator builds in full, each node's row of G' cut
// from the degree broadcast, because its Stats are the paper's rounds.
func (b *backend) build(ctx context.Context, key artifactKey, sib *artifactEntry) (*artifactEntry, error) {
	w, sr := b.weights()
	low := key.variant == artLowDegree
	ent := &artifactEntry{base: w}
	if b.opts.Execution == ExecDirect {
		var err error
		ent.art, ent.stats, err = direct(ctx, b, func() (art *hopset.Artifact, err error) {
			if low {
				ent.degs = make([]int64, w.N)
				for v := range ent.degs {
					ent.degs[v] = int64(len(w.Rows[v])) // the row includes the diagonal: |N(v)|
				}
				ent.base = apsp.LowDegree(w, ent.degs)
			}
			sibArt, sibGH := sib.parts()
			art, ent.gh, err = hopset.BuildDirectFrom(ctx, sr, ent.base, key.params, sibArt, sibGH, b.opts.Workers)
			return art, err
		})
		if err != nil {
			return nil, err
		}
		ent.stats = ent.stats.leave()
		return ent, nil
	}
	n := b.g.N
	if low {
		ent.base = matrix.New[semiring.WH](n)
	}
	board := hitting.NewBoard(n)
	results := make([]*hopset.Result, n)
	stats, err := cc.Run(ctx, b.opts.config(n), func(nd *cc.Node) error {
		row := w.Rows[nd.ID]
		if low {
			degs := nd.BroadcastVal(int64(len(row)))
			if nd.ID == 0 {
				ent.degs = degs
			}
			row = apsp.LowDegreeRow(nd.ID, row, degs, apsp.DegreeThreshold(n))
			ent.base.Rows[nd.ID] = row
		}
		res, err := hopset.Build(nd, sr, row, board, key.params)
		results[nd.ID] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	if ent.art, err = hopset.Collect(results); err != nil {
		return nil, err
	}
	ent.stats = statsFrom(stats)
	return ent, nil
}

// attach readies an entry of variant loaded from a snapshot for queries
// before it is published, sib as for build, by deriving what build would
// have kept: the base (G, or G' reconstructed from the entry's degs
// exactly as the build did) and, on the host, the G ∪ H overlay the β-hop
// detections run over, which re-points the artifact's rows into its own
// (DESIGN.md §13, "One copy of G ∪ H"). A sibling on G lends the overlay
// every row the two artifacts share; a G' entry never takes one, as its
// base is its own.
func (b *backend) attach(variant artVariant, ent, sib *artifactEntry) {
	ent.base, _ = b.weights()
	if variant == artLowDegree {
		ent.base, sib = apsp.LowDegree(ent.base, ent.degs), nil
	}
	if b.opts.Execution == ExecDirect {
		sibArt, sibGH := sib.parts()
		ent.gh = mssp.OverlayGH(ent.base, ent.art, sibArt, sibGH, b.opts.Workers)
	}
}

// parts is a sibling's artifact and G ∪ H, both nil for no sibling.
func (sib *artifactEntry) parts() (*hopset.Artifact, *matrix.Mat[semiring.WH]) {
	if sib == nil {
		return nil, nil
	}
	return sib.art, sib.gh
}

// direct is the frame around every host call: refuse a context that is
// already dead (the kernels only poll between product iterations), time the
// call, and report the wall-clock as the run's Stats - no rounds, no
// messages, so no charged or phase breakdown either (nil). The time rides
// in kernelTime until the Stats leave the engine (Stats.leave).
func direct[T any](ctx context.Context, b *backend, kernel func() (T, error)) (T, Stats, error) {
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, Stats{}, err
	}
	start := time.Now()
	out, err := kernel()
	return out, Stats{Nodes: b.g.N, Exec: ExecDirect, kernelTime: time.Since(start)}, err
}

// baseEntry is the entry a detection on the base hopset (mssp, distance,
// diameter) runs on, which NewEngine and a DynamicEngine's rebuild ready
// before they hand the engine out: on the simulator the base entry, built
// now if need be, because its rounds are the point; on the host nil, as
// directOn detects over G and resolves G ∪ H only when the certified
// searches abort, so the first such detection builds it (DESIGN.md §16).
func (b *backend) baseEntry(ctx context.Context) (*artifactEntry, error) {
	if b.opts.Execution == ExecDirect {
		return nil, nil
	}
	return b.base(ctx)
}

// Resolve is the base entry's G ∪ H (mssp.GH), resolved under the ctx of
// the detection whose certified searches aborted: Engine.artifact's rules
// hold, so that a waiter's cancel leaves only that waiter and a canceled
// build is taken over by a live one.
func (b *backend) Resolve(ctx context.Context) (*matrix.Mat[semiring.WH], error) {
	ent, err := b.base(ctx)
	if err != nil {
		return nil, err
	}
	return ent.gh, nil
}

// simOn is the simulated clique on ent's base, MSSP running over its
// hopset, or on G alone if ent is nil.
func (b *backend) simOn(ctx context.Context, ent *artifactEntry) *clique.Sim {
	w, sr := b.weights()
	if ent == nil {
		return clique.NewSim(ctx, b.opts.config(b.g.N), sr, w, nil)
	}
	return clique.NewSim(ctx, b.opts.config(b.g.N), sr, ent.base, ent.art)
}

// directOn is the host clique on ent's base, detecting over its G ∪ H, or,
// if ent is nil, on G, detecting over the base entry's G ∪ H, which only
// an aborted certified search resolves (Resolve); a value, so that a
// served query's stays off the heap.
func (b *backend) directOn(ctx context.Context, ent *artifactEntry) clique.Direct {
	w, sr := b.weights()
	var gh mssp.GH = b
	beta := b.beta
	if ent != nil {
		w, gh, beta = ent.base, mssp.Built{M: ent.gh}, ent.art.Beta
	}
	c := clique.NewDirect(ctx, sr, w, gh, beta, b.opts.Workers)
	c.Served = b.served
	return *c
}

// on runs f, a kind written over clique.Clique, on the clique on ent (as
// simOn and directOn take it) and, if lowEnt is not nil, low on lowEnt's:
// on the simulator low is On c, so that both share one round budget and
// the Stats are their runs'; on the host both run inside the direct frame.
// A kind of one primitive calls it on a clique.Direct of its own instead:
// on is not inlined, so the clique it passes as an interface goes to the
// heap.
func on[T any](ctx context.Context, b *backend, ent, lowEnt *artifactEntry, f func(c, low clique.Clique) (T, error)) (T, Stats, error) {
	if b.opts.Execution == ExecSimulated {
		c := b.simOn(ctx, ent)
		var low clique.Clique
		if lowEnt != nil {
			low = c.On(lowEnt.base, lowEnt.art)
		}
		out, err := f(c, low)
		return out, statsFrom(c.Stats), err
	}
	return direct(ctx, b, func() (T, error) {
		c := b.directOn(ctx, ent)
		var low clique.Clique
		if lowEnt != nil {
			l := b.directOn(ctx, lowEnt)
			low = &l
		}
		return f(&c, low)
	})
}

// mssp answers the β-hop source detection on G ∪ H of the base hopset
// (Theorem 3): the flat row-major n×|S| plane, cell v·|S|+j holding
// d̃(v,s) for the j-th source s in ascending order, Unreachable where s
// does not reach v. The host computes it by one search per source over G
// wherever the hop certificate proves it the same plane (mssp.RunDirect),
// and hands back the kernel's own plane: its rest state semiring.Inf is
// Unreachable, so no cell is copied. The caller owns the plane:
// Engine.MSSP serves it under row headers, Engine.distance reads one cell
// and releases it (DESIGN.md §13, "the result path").
func (b *backend) mssp(ctx context.Context, inS []bool) ([]int64, Stats, error) {
	ent, err := b.baseEntry(ctx)
	if err != nil {
		return nil, Stats{}, err
	}
	if b.opts.Execution == ExecSimulated {
		c := b.simOn(ctx, ent)
		plane, err := c.MSSP(inS)
		return plane, statsFrom(c.Stats), err
	}
	return direct(ctx, b, func() ([]int64, error) {
		c := b.directOn(ctx, ent)
		return c.MSSP(inS)
	})
}

// knearest returns every node's k closest nodes over the routed semiring
// (Theorem 18), rows in column order. The rows are lent: after a
// successful call, release gives them back once the caller has copied them
// out (the host search's state; nothing on the simulator).
func (b *backend) knearest(ctx context.Context, k int) (rows *matrix.Mat[semiring.WHF], release func(), st Stats, err error) {
	routed := b.routedMat()
	if b.opts.Execution == ExecSimulated {
		c := b.simOn(ctx, nil)
		rows, release, err = c.KNearestRouted(routed, k)
		return rows, release, statsFrom(c.Stats), err
	}
	rows, st, err = direct(ctx, b, func() (rows *matrix.Mat[semiring.WHF], err error) {
		c := b.directOn(ctx, nil)
		rows, release, err = c.KNearestRouted(routed, k)
		return rows, err
	})
	return rows, release, st, err
}

// sourceDetect solves (S, d, k)-source detection (Theorem 19), its rows
// lent like knearest's.
func (b *backend) sourceDetect(ctx context.Context, inS []bool, d, k int) (rows *matrix.Mat[semiring.WH], release func(), st Stats, err error) {
	if b.opts.Execution == ExecSimulated {
		c := b.simOn(ctx, nil)
		rows, release, err = c.SourceDetect(inS, d, k)
		return rows, release, statsFrom(c.Stats), err
	}
	rows, st, err = direct(ctx, b, func() (rows *matrix.Mat[semiring.WH], err error) {
		c := b.directOn(ctx, nil)
		rows, release, err = c.SourceDetect(inS, d, k)
		return rows, err
	})
	return rows, release, st, err
}

// sssp returns exact distances from source and the Bellman-Ford iteration
// count (Theorem 33).
func (b *backend) sssp(ctx context.Context, source int) ([]int64, int, Stats, error) {
	w, _ := b.weights()
	var iters int
	dist, st, err := on(ctx, b, nil, nil, func(c, _ clique.Clique) (dist []int64, err error) {
		dist, iters, err = sssp.Exact(c, w, source, 0)
		return dist, err
	})
	return dist, iters, st, err
}

// apsp runs one concrete §6 variant from the ε/2 hopset on G (and, for the
// unweighted algorithm, the one on G'): the flat row-major n×n estimate
// table, rest state semiring.Inf, owned by the caller like mssp's plane.
func (b *backend) apsp(ctx context.Context, v api.APSPVariant, entG, entLow *artifactEntry) ([]int64, Stats, error) {
	return on(ctx, b, entG, entLow, func(c, low clique.Clique) ([]int64, error) {
		switch v {
		case api.APSPWeighted:
			return apsp.TwoPlusEpsWeighted(c, entG.base)
		case api.APSPWeighted3:
			return apsp.ThreePlusEps(c, entG.base)
		}
		return apsp.TwoPlusEpsUnweighted(c, entG.base, low)
	})
}

// diameter returns the §7.2 estimate from the base hopset.
func (b *backend) diameter(ctx context.Context) (int64, Stats, error) {
	ent, err := b.baseEntry(ctx)
	if err != nil {
		return 0, Stats{}, err
	}
	return on(ctx, b, ent, nil, func(c, _ clique.Clique) (int64, error) {
		return diameter.Approx(c)
	})
}
