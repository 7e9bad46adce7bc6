package ccsp

import (
	"context"
	"sync"
	"sync/atomic"
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
// come back raw (cc or context sentinels), but for an entry's build, which
// comes back as Engine.artifact wraps it; the backend reaches the artifact
// cache only through its lazy hopsets, and validation, result shaping and
// the wrap into the public error taxonomy live once, in the Engine
// methods.
type backend struct {
	g    *graph.Graph
	opts Options
	// base, half and halfLow are the engine's hopsets as its detections
	// see them: the base entry, and the ε/2 entries on G and on G′ that the
	// §6 APSP algorithms detect over. A host detection runs over G (or G′)
	// at the hopset's β and reads the entry only when its certified
	// searches abort (lazyHopset.Resolve).
	base, half, halfLow *lazyHopset

	// The weight matrix, the semiring sized for it, the routed (first-hop
	// witness) weight matrix and the low-degree subgraph G′ with its degree
	// vector are built once on first use and immutable afterwards: the
	// graph does not change after newEngine, and Graph.AugSemiring scans
	// every edge.
	once       sync.Once
	w          *matrix.Mat[semiring.WH]
	sr         semiring.AugMinPlus
	routedOnce sync.Once
	routed     *matrix.Mat[semiring.WHF]
	lowOnce    sync.Once
	degs       []int64
	low        *matrix.Mat[semiring.WH]

	// served is the Served hook of every clique.Direct it makes (tests).
	served func(w *matrix.Mat[semiring.WH], beta int, inS []bool, certified bool)
}

// lazyHopset is one hopset of the engine as a detection sees it: its key,
// its hop bound β, derived from the params alone (hopset.Params.Beta), and
// the entry, fetched through artifact (Engine.artifact). The simulator
// fetches the entry before its run; a host detection asks for the entry's
// G ∪ H (Resolve) only when its certified searches abort, so that the
// first such detection builds it under its own ctx (DESIGN.md §16).
type lazyHopset struct {
	key      artifactKey
	beta     int
	artifact func(context.Context, artifactKey) (*artifactEntry, error)
	// asked records that a query has run over h, so that Save writes h's
	// entry whether or not a detection needed it (set by backend.apsp; the
	// base entry is written always).
	asked atomic.Bool
}

// newLazyHopset is the lazy hopset at key on n nodes, its entries fetched
// through artifact.
func newLazyHopset(key artifactKey, n int, artifact func(context.Context, artifactKey) (*artifactEntry, error)) *lazyHopset {
	beta, err := key.params.Beta(n)
	if err != nil {
		panic(err) // prepared opts have ε in (0, 1]
	}
	return &lazyHopset{key: key, beta: beta, artifact: artifact}
}

// entry is h's entry, built now if need be; nil for no hopset.
func (h *lazyHopset) entry(ctx context.Context) (*artifactEntry, error) {
	if h == nil {
		return nil, nil
	}
	return h.artifact(ctx, h.key)
}

// Resolve is h's G ∪ H (mssp.GH), resolved under the ctx of the detection
// whose certified searches aborted: Engine.artifact's rules hold, so that
// a waiter's cancel leaves only that waiter and a canceled build is taken
// over by a live one.
func (h *lazyHopset) Resolve(ctx context.Context) (*matrix.Mat[semiring.WH], error) {
	ent, err := h.entry(ctx)
	if err != nil {
		return nil, err
	}
	return ent.gh, nil
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

// lowDegree returns the cached degree vector and low-degree subgraph G′
// of §6.3 (apsp.LowDegree), which every entry on G′ and every detection
// over it share.
func (b *backend) lowDegree() ([]int64, *matrix.Mat[semiring.WH]) {
	b.lowOnce.Do(func() {
		w, _ := b.weights()
		b.degs = make([]int64, w.N)
		for v := range b.degs {
			b.degs[v] = int64(len(w.Rows[v])) // the row includes the diagonal: |N(v)|
		}
		b.low = apsp.LowDegree(w, b.degs)
	})
	return b.degs, b.low
}

// graphOf is the weight matrix a hopset of variant is built on: G, or G′.
func (b *backend) graphOf(variant artVariant) *matrix.Mat[semiring.WH] {
	if variant == artLowDegree {
		_, low := b.lowDegree()
		return low
	}
	w, _ := b.weights()
	return w
}

// build constructs the entry for key, ready for queries: the hopset
// artifact (§4), for artLowDegree the degree vector that defines G', the
// base the artifact was built on (G, or G': on the host the backend's own
// copy, lowDegree), the run's Stats and, on the host, the G ∪ H its level
// loop swept (hopset.BuildDirectFrom), so that the entry needs no attach.
// sib, if not nil, is a completed entry of key's variant whose params
// differ from key's only in ε: the host build
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
				ent.degs, ent.base = b.lowDegree()
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
// have kept: the base (G, or the backend's G′, which loadEngine has checked
// the entry's degs against) and, on the host, the G ∪ H overlay the β-hop
// detections run over, which re-points the artifact's rows into its own
// (DESIGN.md §13, "One copy of G ∪ H"). A sibling on G lends the overlay
// every row the two artifacts share; a G' entry never takes one, as its
// base is its own.
func (b *backend) attach(variant artVariant, ent, sib *artifactEntry) {
	ent.base = b.graphOf(variant)
	if variant == artLowDegree {
		sib = nil
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
	return b.base.entry(ctx)
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

// directOn is the host clique on the graph h is built on (G, or G′),
// detecting at h's β over h's G ∪ H, which only an aborted certified
// search resolves (lazyHopset.Resolve), or on G with no hopset if h is nil
// (for kinds that run no detection); a value, so that a served query's
// stays off the heap. h is the backend's own pointer, so handing it over
// boxes nothing.
func (b *backend) directOn(ctx context.Context, h *lazyHopset) clique.Direct {
	w, sr := b.weights()
	var gh mssp.GH
	beta := 0
	if h != nil {
		w, gh, beta = b.graphOf(h.key.variant), h, h.beta
	}
	c := clique.NewDirect(ctx, sr, w, gh, beta, b.opts.Workers)
	c.Served = b.served
	return *c
}

// on runs f, a kind written over clique.Clique, on the clique over h (nil:
// G alone) and, if low is not nil, low on the clique over low: on the
// simulator, each entry fetched (and built, if need be) first, low is On
// c, so that both share one round budget and the Stats are their runs';
// on the host both run inside the direct frame, as directOn makes them. A
// kind of one primitive calls it on a clique.Direct of its own instead: on
// is not inlined, so the clique it passes as an interface goes to the
// heap.
func on[T any](ctx context.Context, b *backend, h, low *lazyHopset, f func(c, low clique.Clique) (T, error)) (T, Stats, error) {
	if b.opts.Execution == ExecSimulated {
		var zero T
		ent, err := h.entry(ctx)
		if err != nil {
			return zero, Stats{}, err
		}
		lowEnt, err := low.entry(ctx)
		if err != nil {
			return zero, Stats{}, err
		}
		c := b.simOn(ctx, ent)
		var lc clique.Clique
		if lowEnt != nil {
			lc = c.On(lowEnt.base, lowEnt.art)
		}
		out, err := f(c, lc)
		return out, statsFrom(c.Stats), err
	}
	return direct(ctx, b, func() (T, error) {
		c := b.directOn(ctx, h)
		var lc clique.Clique
		if low != nil {
			l := b.directOn(ctx, low)
			lc = &l
		}
		return f(&c, lc)
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
	if b.opts.Execution == ExecSimulated {
		ent, err := b.base.entry(ctx)
		if err != nil {
			return nil, Stats{}, err
		}
		c := b.simOn(ctx, ent)
		plane, err := c.MSSP(inS)
		return plane, statsFrom(c.Stats), err
	}
	return direct(ctx, b, func() ([]int64, error) {
		c := b.directOn(ctx, b.base)
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

// apsp runs one concrete §6 variant over the ε/2 hopset on G (and, for
// the unweighted algorithm, the one on G'): the flat row-major n×n
// estimate table, rest state semiring.Inf, owned by the caller like mssp's
// plane. The simulator builds both entries before its run; the host reads
// one only when a detection over its graph aborts (on).
func (b *backend) apsp(ctx context.Context, v api.APSPVariant) ([]int64, Stats, error) {
	var low *lazyHopset
	if v == api.APSPUnweighted {
		low = b.halfLow
		low.asked.Store(true)
	}
	b.half.asked.Store(true)
	w, _ := b.weights()
	return on(ctx, b, b.half, low, func(c, low clique.Clique) ([]int64, error) {
		switch v {
		case api.APSPWeighted:
			return apsp.TwoPlusEpsWeighted(c, w)
		case api.APSPWeighted3:
			return apsp.ThreePlusEps(c, w)
		}
		return apsp.TwoPlusEpsUnweighted(c, w, low)
	})
}

// diameter returns the §7.2 estimate from the base hopset.
func (b *backend) diameter(ctx context.Context) (int64, Stats, error) {
	return on(ctx, b, b.base, nil, func(c, _ clique.Clique) (int64, error) {
		return diameter.Approx(c)
	})
}
