// Package clique is the collective seam the §7 theorems are written once
// against (DESIGN.md §12): the paper's distance tools and communication
// steps as calls over all n nodes at once, node v's share of every
// argument and answer at index v, on a simulated (Sim) or a host (Direct)
// backend that give the same answers.
package clique

import (
	"context"
	"fmt"
	"slices"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Clique is an n-node Congested Clique over one graph G.
type Clique interface {
	// N is the number of nodes, which every node knows.
	N() int
	// KNearest returns every node's k nearest nodes over G's augmented
	// weights (Theorem 18), rows in column order, lent until release;
	// release is nil exactly when err is not.
	KNearest(k int) (_ *matrix.Mat[semiring.WH], release func(), _ error)
	// Hit returns a hitting set of the rows' column sets (Lemma 4).
	Hit(rows []matrix.Row[semiring.WH]) ([]bool, error)
	// MSSP runs β-hop source detection from inS on G ∪ H (Theorem 3): the
	// caller's flat row-major n×|S| plane, cell v·|S|+j holding d̃(v, s)
	// for the j-th source s, semiring.Inf where s does not reach v.
	MSSP(inS []bool) ([]int64, error)
	// Broadcast announces vals[v] from every node v in one round; every
	// node learns the vector, which nobody may mutate.
	Broadcast(vals []int64) ([]int64, error)
	// Exchange is one synchronous round, at most one packet per link:
	// in[u] is what u received from out, sorted by sender.
	Exchange(out [][]cc.Packet) (in [][]cc.Msg, _ error)
	// Route delivers any addressed message set by Lenzen's routing [43],
	// in[u] sorted by (sender, submission order).
	Route(out [][]cc.Packet) (in [][]cc.Msg, _ error)
}

// Sim is the round-accurate clique. Stats sums its runs (cc.Stats.Add):
// the rounds, messages and charged rounds of one run doing every step in
// turn, but each run starts unlabeled (phase ""). The config's MaxRounds
// caps that running total, not each run.
type Sim struct {
	Stats cc.Stats

	ctx context.Context
	cfg cc.Config
	sr  semiring.AugMinPlus
	w   *matrix.Mat[semiring.WH]
	art *hopset.Artifact
}

// NewSim returns the simulated clique of cfg.N nodes on the graph whose
// augmented weight matrix is w, MSSP running over art's hopset (nil for
// none). Every run polls ctx at its barriers.
func NewSim(ctx context.Context, cfg cc.Config, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *hopset.Artifact) *Sim {
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = cc.DefaultMaxRounds
	}
	return &Sim{Stats: cc.Stats{N: cfg.N}, ctx: ctx, cfg: cfg, sr: sr, w: w, art: art}
}

// run is one primitive: one cc.Run of prog under what is left of the
// round budget.
func (s *Sim) run(prog cc.Program) error {
	cfg := s.cfg
	left := cfg.MaxRounds - s.Stats.TotalRounds()
	cfg.MaxRounds = max(left, 1) // cc reads 0 as its default cap
	st, err := cc.Run(s.ctx, cfg, prog)
	s.Stats.Add(&st)
	if err == nil && st.TotalRounds() > left {
		err = fmt.Errorf("%w: %d > MaxRounds=%d", cc.ErrRoundLimit, s.Stats.TotalRounds(), s.cfg.MaxRounds)
	}
	return err
}

func (s *Sim) N() int { return s.cfg.N }

func (s *Sim) KNearest(k int) (*matrix.Mat[semiring.WH], func(), error) {
	rows := matrix.New[semiring.WH](s.cfg.N)
	if err := s.run(func(nd *cc.Node) error {
		rows.Rows[nd.ID] = disttools.KNearest(nd, s.sr, s.w.Rows[nd.ID], k)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return rows, func() {}, nil
}

func (s *Sim) Hit(rows []matrix.Row[semiring.WH]) ([]bool, error) {
	board := hitting.NewBoard(s.cfg.N)
	var inA []bool
	err := s.run(func(nd *cc.Node) error {
		sv := make([]int32, 0, len(rows[nd.ID]))
		for _, e := range rows[nd.ID] {
			sv = append(sv, e.Col)
		}
		if in := board.Hit(nd, sv); nd.ID == 0 {
			inA = in
		}
		return nil
	})
	return inA, err
}

// MSSP has every node write its detections into its own row of the plane.
func (s *Sim) MSSP(inS []bool) ([]int64, error) {
	src := hitting.Members(inS)
	q := len(src)
	plane := make([]int64, s.cfg.N*q)
	for i := range plane {
		plane[i] = semiring.Inf
	}
	if err := s.run(func(nd *cc.Node) error {
		res, err := mssp.RunWithHopset(nd, s.sr, s.w.Rows[nd.ID], inS, s.art.At(nd.ID))
		if err != nil {
			return err
		}
		for _, e := range res.Dist {
			if j, ok := slices.BinarySearch(src, e.Col); ok {
				plane[nd.ID*q+j] = e.Val.W
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return plane, nil
}

func (s *Sim) Broadcast(vals []int64) ([]int64, error) {
	var all []int64
	err := s.run(func(nd *cc.Node) error {
		if got := nd.BroadcastVal(vals[nd.ID]); nd.ID == 0 {
			all = got
		}
		return nil
	})
	return all, err
}

func (s *Sim) Exchange(out [][]cc.Packet) ([][]cc.Msg, error) { return s.send(out, (*cc.Node).Sync) }

func (s *Sim) Route(out [][]cc.Packet) ([][]cc.Msg, error) { return s.send(out, (*cc.Node).Route) }

// send is one run in which every node sends its packets through send.
func (s *Sim) send(out [][]cc.Packet, send func(*cc.Node, []cc.Packet) []cc.Msg) ([][]cc.Msg, error) {
	in := make([][]cc.Msg, s.cfg.N)
	err := s.run(func(nd *cc.Node) error {
		in[nd.ID] = send(nd, out[nd.ID])
		return nil
	})
	return in, err
}

// Direct is the host clique: the direct kernels (KNearestLent,
// GreedyRows, RunDirectPanel), Broadcast a copy, Exchange and Route a
// transpose. It keeps no Stats.
type Direct struct {
	ctx      context.Context
	sr       semiring.AugMinPlus
	w, gh    *matrix.Mat[semiring.WH]
	beta, wk int
}

// NewDirect returns the host clique on the graph whose augmented weight
// matrix is w, MSSP detecting beta-hop distances over gh, an artifact's
// G ∪ H (nil and 0 for none). The kernels poll ctx and start at most
// workers goroutines a pass (<= 0 means GOMAXPROCS).
func NewDirect(ctx context.Context, sr semiring.AugMinPlus, w, gh *matrix.Mat[semiring.WH], beta, workers int) *Direct {
	return &Direct{ctx: ctx, sr: sr, w: w, gh: gh, beta: beta, wk: workers}
}

func (d *Direct) N() int { return d.w.N }

func (d *Direct) KNearest(k int) (*matrix.Mat[semiring.WH], func(), error) {
	return disttools.KNearestLent[semiring.WH](d.ctx, d.sr, d.w, k, d.wk)
}

func (d *Direct) Hit(rows []matrix.Row[semiring.WH]) ([]bool, error) {
	return hitting.GreedyRows(d.w.N, rows), nil
}

func (d *Direct) MSSP(inS []bool) ([]int64, error) {
	p, err := mssp.RunDirectPanel(d.ctx, d.gh, d.beta, inS, d.wk)
	if err != nil {
		return nil, err
	}
	return p.W, nil
}

func (d *Direct) Broadcast(vals []int64) ([]int64, error) { return slices.Clone(vals), nil }

func (d *Direct) Exchange(out [][]cc.Packet) ([][]cc.Msg, error) { return transpose(out), nil }

func (d *Direct) Route(out [][]cc.Packet) ([][]cc.Msg, error) { return transpose(out), nil }

// transpose delivers out in memory, in (sender, submission) order, each
// inbox allocated once at its size.
func transpose(out [][]cc.Packet) [][]cc.Msg {
	in := make([][]cc.Msg, len(out))
	cnt := make([]int, len(out))
	for _, ps := range out {
		for _, p := range ps {
			cnt[p.Dst]++
		}
	}
	for u := range in {
		in[u] = make([]cc.Msg, 0, cnt[u])
	}
	for v, ps := range out {
		for _, p := range ps {
			m := p.M
			m.Src = int32(v)
			in[p.Dst] = append(in[p.Dst], m)
		}
	}
	return in
}
