package ccsp

import (
	"context"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/clique"
	"github.com/congestedclique/ccsp/internal/diameter"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/sssp"
)

// executor is the one seam between the Engine's public methods and the
// backends that compute the paper's algebra (DESIGN.md §12). A method runs
// one preprocessing or query step on the engine's graph and returns its
// intermediate rows - the same values from every backend, which the
// differential oracle (direct_test.go, FuzzDirectVsSimulated) pins byte for
// byte - plus the run's Stats. Errors come back raw (cc or context
// sentinels); validation, artifact lookup, result shaping and the wrap into
// the public error taxonomy live once, in the Engine methods above the
// seam. adoptEngine, which every engine is made by, picks the
// implementation from Options.Execution.
type executor interface {
	// build constructs the entry for key, ready for queries: the hopset
	// artifact (§4), for artLowDegree the degree vector that defines G',
	// the run's Stats and whatever the executor's queries read besides
	// (directExec: artifactEntry.base and gh). sib, if not nil, is a
	// completed entry of key's variant whose params differ from key's
	// only in ε: directExec runs only the level loop over its artifact's
	// bunch stage; simExec builds in full, because its Stats are the
	// paper's rounds.
	build(ctx context.Context, key artifactKey, sib *artifactEntry) (*artifactEntry, error)
	// attach readies an entry of variant loaded from a snapshot for
	// queries before it is published, sib as for build: directExec
	// derives what build would have kept (artifactEntry.base and gh),
	// simExec reads nothing besides the artifact.
	attach(variant artVariant, ent, sib *artifactEntry)
	// mssp answers the β-hop source detection on G ∪ H (Theorem 3): the
	// flat row-major n×|S| plane, cell v·|S|+j holding d̃(v,s) for the j-th
	// source s in ascending order, Unreachable where s does not reach v.
	// directExec computes it by one search per source over G wherever the
	// hop certificate proves it the same plane (mssp.RunDirect).
	// The caller owns the plane: Engine.MSSP serves it under row headers,
	// Engine.distance reads one cell and releases it (DESIGN.md §13, "the
	// result path").
	mssp(ctx context.Context, ent *artifactEntry, inS []bool) ([]int64, Stats, error)
	// sssp returns exact distances from source and the Bellman-Ford
	// iteration count (Theorem 33).
	sssp(ctx context.Context, source int) ([]int64, int, Stats, error)
	// apsp runs one concrete §6 variant from the ε/2 hopset on G (and, for
	// the unweighted algorithm, the one on G'): the flat row-major n×n
	// estimate table, owned by the caller like mssp's plane.
	apsp(ctx context.Context, v api.APSPVariant, entG, entLow *artifactEntry) ([]int64, Stats, error)
	// diameter returns the §7.2 estimate from the base hopset.
	diameter(ctx context.Context, ent *artifactEntry) (int64, Stats, error)
	// knearest returns every node's k closest nodes over the routed
	// semiring (Theorem 18), rows in column order. The rows are lent: after
	// a successful call, release gives them back once the caller has copied
	// them out (directExec: their disttools search state; simExec: keepAll,
	// the rows are nobody else's).
	knearest(ctx context.Context, k int) (*matrix.Mat[semiring.WHF], func(), Stats, error)
	// sourceDetect solves (S, d, k)-source detection (Theorem 19), its rows
	// lent like knearest's.
	sourceDetect(ctx context.Context, inS []bool, d, k int) (*matrix.Mat[semiring.WH], func(), Stats, error)
}

// simExec is the round-accurate backend: a build, APSP or neighbour query
// is one cc.Run of the per-node collective program, each node writing its
// row into a shared matrix (disjoint writes); MSSP and the §7 theorems run
// over a clique.Sim, one run per primitive. Stats are the runs' rounds
// and messages.
type simExec struct {
	g    *graph.Graph
	opts Options
}

// run executes one simulator run of prog on the engine's clique.
func (s *simExec) run(ctx context.Context, prog cc.Program) (Stats, error) {
	stats, err := cc.Run(ctx, s.opts.config(s.g.N), prog)
	return statsFrom(stats), err
}

func (s *simExec) build(ctx context.Context, key artifactKey, _ *artifactEntry) (*artifactEntry, error) {
	n := s.g.N
	sr := s.g.AugSemiring()
	board := hitting.NewBoard(n)
	results := make([]*hopset.Result, n)
	var degsShared []int64
	stats, err := s.run(ctx, func(nd *cc.Node) error {
		row := s.g.WeightRow(nd.ID)
		if key.variant == artLowDegree {
			degs := nd.BroadcastVal(int64(len(row)))
			if nd.ID == 0 {
				degsShared = degs
			}
			row = apsp.LowDegreeRow(nd.ID, row, degs, apsp.DegreeThreshold(n))
		}
		res, err := hopset.Build(nd, sr, row, board, key.params)
		results[nd.ID] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	art, err := hopset.Collect(results)
	if err != nil {
		return nil, err
	}
	return &artifactEntry{art: art, degs: degsShared, stats: stats}, nil
}

func (s *simExec) attach(artVariant, *artifactEntry, *artifactEntry) {}

func (s *simExec) mssp(ctx context.Context, ent *artifactEntry, inS []bool) ([]int64, Stats, error) {
	c := clique.NewSim(ctx, s.opts.config(s.g.N), s.g.AugSemiring(), s.g.WeightMatrix(), ent.art)
	plane, err := c.MSSP(inS)
	return plane, statsFrom(c.Stats), err
}

func (s *simExec) sssp(ctx context.Context, source int) ([]int64, int, Stats, error) {
	w := s.g.WeightMatrix()
	c := clique.NewSim(ctx, s.opts.config(s.g.N), s.g.AugSemiring(), w, nil)
	dist, iters, err := sssp.Exact(c, w, source, 0)
	return dist, iters, statsFrom(c.Stats), err
}

// apsp has every node write its estimate row into its own row of one
// flat table (disjoint writes), so the answer crosses the seam in the
// direct backend's form.
func (s *simExec) apsp(ctx context.Context, v api.APSPVariant, entG, entLow *artifactEntry) ([]int64, Stats, error) {
	n := s.g.N
	sr := s.g.AugSemiring()
	eps := s.opts.Epsilon
	boards := hitting.NewBoardSeq(n)
	table := make([]int64, n*n)
	stats, err := s.run(ctx, func(nd *cc.Node) (err error) {
		var est []int64
		wrow := s.g.WeightRow(nd.ID)
		switch v {
		case api.APSPWeighted:
			est, err = apsp.TwoPlusEpsWeightedWithHopset(nd, sr, wrow, eps, boards, entG.art.At(nd.ID))
		case api.APSPWeighted3:
			est, err = apsp.ThreePlusEpsWithHopset(nd, sr, wrow, eps, boards, entG.art.At(nd.ID))
		default:
			est, err = apsp.TwoPlusEpsUnweightedWithHopsets(nd, sr, wrow, eps, boards, entLow.degs, entG.art.At(nd.ID), entLow.art.At(nd.ID))
		}
		copy(table[nd.ID*n:], est)
		return err
	})
	return table, stats, err
}

func (s *simExec) diameter(ctx context.Context, ent *artifactEntry) (int64, Stats, error) {
	c := clique.NewSim(ctx, s.opts.config(s.g.N), s.g.AugSemiring(), s.g.WeightMatrix(), ent.art)
	est, err := diameter.Approx(c)
	return est, statsFrom(c.Stats), err
}

func (s *simExec) knearest(ctx context.Context, k int) (*matrix.Mat[semiring.WHF], func(), Stats, error) {
	sr := s.g.RoutedSemiring()
	rows := matrix.New[semiring.WHF](s.g.N)
	stats, err := s.run(ctx, func(nd *cc.Node) error {
		rows.Rows[nd.ID] = disttools.KNearest[semiring.WHF](nd, sr, s.g.WeightRowRouted(nd.ID), k)
		return nil
	})
	return rows, keepAll, stats, err
}

func (s *simExec) sourceDetect(ctx context.Context, inS []bool, d, k int) (*matrix.Mat[semiring.WH], func(), Stats, error) {
	sr := s.g.AugSemiring()
	rows := matrix.New[semiring.WH](s.g.N)
	stats, err := s.run(ctx, func(nd *cc.Node) error {
		rows.Rows[nd.ID] = disttools.SourceDetectK[semiring.WH](nd, sr, s.g.WeightRow(nd.ID), inS, d, k)
		return nil
	})
	return rows, keepAll, stats, err
}
