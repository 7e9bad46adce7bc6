// Package clique is the collective seam the §6 and §7 algorithms are
// written once against (DESIGN.md §12): the paper's distance tools and
// communication steps as calls over all n nodes at once, node v's share of
// every argument and answer at index v, on a simulated (Sim) or a host
// (Direct) backend that give the same answers.
package clique

import (
	"context"
	"fmt"
	"slices"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matmul"
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
	// KNearestRouted is KNearest over routed, G's weights with each edge's
	// first hop as witness (Graph.WeightRowRouted), in the routed semiring
	// bounded as G's augmented one is: the witness of every answer is the
	// first hop of a shortest path to it.
	KNearestRouted(routed *matrix.Mat[semiring.WHF], k int) (_ *matrix.Mat[semiring.WHF], release func(), _ error)
	// SourceDetect solves (S, d, k)-source detection on G (Theorem 19): row
	// v holds the k members of inS nearest v by paths of at most d hops, in
	// column order, lent until release as KNearest's rows are.
	SourceDetect(inS []bool, d, k int) (_ *matrix.Mat[semiring.WH], release func(), _ error)
	// Hit returns a hitting set of the rows' column sets (Lemma 4).
	Hit(rows []matrix.Row[semiring.WH]) ([]bool, error)
	// MSSP runs β-hop source detection from inS on G ∪ H (Theorem 3): the
	// caller's flat row-major n×|S| plane, cell v·|S|+j holding d̃(v, s)
	// for the j-th source s (the j-th member of inS, in ascending order),
	// semiring.Inf where s does not reach v.
	MSSP(inS []bool) (plane []int64, _ error)
	// Broadcast announces vals[v] from every node v in one round; every
	// node learns the vector, which nobody may mutate. It may be vals
	// itself: the caller leaves vals alone while it reads the answer.
	Broadcast(vals []int64) ([]int64, error)
	// Exchange is one synchronous round, at most one packet per link:
	// in[u] is what u received from out, sorted by sender.
	Exchange(out [][]cc.Packet) (in [][]cc.Msg, _ error)
	// Route delivers any addressed message set by Lenzen's routing [43],
	// in[u] sorted by (sender, submission order).
	Route(out [][]cc.Packet) (in [][]cc.Msg, _ error)
	// Phase labels the rounds of the calls that follow, until the next
	// Phase, in the per-phase breakdown (cc.Node.Phase); it costs nothing.
	Phase(label string)

	// The four steps below fold what node v learns into row v of a dense
	// estimate table, est[v][u] = min(est[v][u], ·), so that Direct never
	// materializes the messages: n·k and n² of them (DESIGN.md §12).

	// Mirror has every node v route d(v, u) to each u ≠ v of its row
	// (Lenzen's routing), which u folds into est[u][v].
	Mirror(est [][]int64, rows *matrix.Mat[semiring.WH]) error
	// PivotCross is one round in which every node u sends every v the cell
	// of its row of plane (n×q, as MSSP returns it) in v's column col[v],
	// which v folds, plus add[v], into est[v][u]; a v whose col[v] is
	// negative folds nothing (it is sent Inf).
	PivotCross(est [][]int64, plane []int64, col []int, add []int64) error
	// ThroughSets folds min over w ∈ W_v ∩ W_u of δ(v,w) + δ(w,u) into
	// est[v][u] (Theorem 20), row v of sets being W_v with v's symmetric
	// estimates.
	ThroughSets(est [][]int64, sets *matrix.Mat[semiring.WH]) error
	// Triple folds the min-plus product A·W·Aᵀ into est, W the weights of
	// G's edges (no diagonal), A's weights read without their hops (two
	// Theorem 8 products, the first at output density rho).
	Triple(est [][]int64, a *matrix.Mat[semiring.WH], rho int) error
}

// minPlus is the plain min-plus semiring whose values are bounded as sr's
// weights are.
func minPlus(sr semiring.AugMinPlus) semiring.MinPlus {
	return semiring.NewMinPlus(sr.MaxW + 1)
}

// routedOf is the witness-tracking semiring bounded as sr is.
func routedOf(sr semiring.AugMinPlus) semiring.RoutedMinPlus {
	return semiring.NewRoutedMinPlus(sr.MaxW, sr.MaxH)
}

// Sim is the round-accurate clique. Stats sums its runs (cc.Stats.Add):
// the rounds, messages and charged rounds of one run doing every step in
// turn, but each run starts under the last Phase label ("" before the
// first), not under the label its predecessor ended in. The config's
// MaxRounds caps that running total, not each run.
type Sim struct {
	*ledger

	ctx context.Context
	cfg cc.Config
	sr  semiring.AugMinPlus
	w   *matrix.Mat[semiring.WH]
	art *hopset.Artifact
}

// ledger is what the cliques On one another share: the summed Stats and
// the label the next run starts under.
type ledger struct {
	Stats cc.Stats
	phase string
}

// NewSim returns the simulated clique of cfg.N nodes on the graph whose
// augmented weight matrix is w, MSSP running over art's hopset (nil for
// none). Every run polls ctx at its barriers.
func NewSim(ctx context.Context, cfg cc.Config, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *hopset.Artifact) *Sim {
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = cc.DefaultMaxRounds
	}
	return &Sim{ledger: &ledger{Stats: cc.Stats{N: cfg.N}}, ctx: ctx, cfg: cfg, sr: sr, w: w, art: art}
}

// On is the clique of s's nodes on another graph, whose augmented weight
// matrix is w, MSSP running over art: its runs add to s's Stats, under
// s's round budget and label.
func (s *Sim) On(w *matrix.Mat[semiring.WH], art *hopset.Artifact) *Sim {
	o := *s
	o.w, o.art = w, art
	return &o
}

// run is one primitive: one cc.Run of prog under what is left of the
// round budget.
func (s *Sim) run(prog cc.Program) error {
	cfg := s.cfg
	left := cfg.MaxRounds - s.Stats.TotalRounds()
	cfg.MaxRounds = max(left, 1) // cc reads 0 as its default cap
	phase := s.phase
	st, err := cc.Run(s.ctx, cfg, func(nd *cc.Node) error {
		if phase != "" {
			nd.Phase(phase)
		}
		return prog(nd)
	})
	s.Stats.Add(&st)
	if err == nil && st.TotalRounds() > left {
		err = fmt.Errorf("%w: %d > MaxRounds=%d", cc.ErrRoundLimit, s.Stats.TotalRounds(), s.cfg.MaxRounds)
	}
	return err
}

func (s *Sim) N() int { return s.cfg.N }

// perNode is one run in which every node v computes row v of the answer by
// row; the rows are nobody else's, so release has nothing to give back.
func perNode[E any](s *Sim, row func(nd *cc.Node) matrix.Row[E]) (*matrix.Mat[E], func(), error) {
	rows := matrix.New[E](s.cfg.N)
	if err := s.run(func(nd *cc.Node) error {
		rows.Rows[nd.ID] = row(nd)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return rows, func() {}, nil
}

func (s *Sim) KNearest(k int) (*matrix.Mat[semiring.WH], func(), error) {
	return perNode(s, func(nd *cc.Node) matrix.Row[semiring.WH] {
		return disttools.KNearest(nd, s.sr, s.w.Rows[nd.ID], k)
	})
}

func (s *Sim) KNearestRouted(routed *matrix.Mat[semiring.WHF], k int) (*matrix.Mat[semiring.WHF], func(), error) {
	sr := routedOf(s.sr)
	return perNode(s, func(nd *cc.Node) matrix.Row[semiring.WHF] {
		return disttools.KNearest(nd, sr, routed.Rows[nd.ID], k)
	})
}

func (s *Sim) SourceDetect(inS []bool, d, k int) (*matrix.Mat[semiring.WH], func(), error) {
	return perNode(s, func(nd *cc.Node) matrix.Row[semiring.WH] {
		return disttools.SourceDetectK(nd, s.sr, s.w.Rows[nd.ID], inS, d, k)
	})
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

func (s *Sim) Phase(label string) { s.phase = label }

func (s *Sim) Mirror(est [][]int64, rows *matrix.Mat[semiring.WH]) error {
	return s.run(func(nd *cc.Node) error {
		out := make([]cc.Packet, 0, len(rows.Rows[nd.ID]))
		for _, e := range rows.Rows[nd.ID] {
			if int(e.Col) != nd.ID {
				out = append(out, cc.Packet{Dst: e.Col, M: cc.Msg{A: e.Val.W}})
			}
		}
		row := est[nd.ID]
		for _, m := range nd.Route(out) {
			row[m.Src] = min(row[m.Src], m.A)
		}
		return nil
	})
}

func (s *Sim) PivotCross(est [][]int64, plane []int64, col []int, add []int64) error {
	n := s.cfg.N
	q := len(plane) / n
	return s.run(func(nd *cc.Node) error {
		out := make([]cc.Packet, n)
		for v := range out {
			out[v] = cc.Packet{Dst: int32(v), M: cc.Msg{A: semiring.Inf}}
			if c := col[v]; c >= 0 {
				out[v].M.A = plane[nd.ID*q+c]
			}
		}
		in := nd.Sync(out)
		if col[nd.ID] >= 0 {
			row := est[nd.ID]
			for _, m := range in {
				row[m.Src] = min(row[m.Src], semiring.MinPlus{}.Mul(add[nd.ID], m.A))
			}
		}
		return nil
	})
}

// ThroughSets runs DistThroughSets at every node (one Sync and a Theorem
// 8 product).
func (s *Sim) ThroughSets(est [][]int64, sets *matrix.Mat[semiring.WH]) error {
	sr := minPlus(s.sr)
	return s.run(func(nd *cc.Node) error {
		ests := make([]disttools.Est, 0, len(sets.Rows[nd.ID]))
		for _, e := range sets.Rows[nd.ID] {
			ests = append(ests, disttools.Est{W: e.Col, To: e.Val.W, From: e.Val.W})
		}
		through, err := disttools.DistThroughSets(nd, sr, ests)
		foldRow(est[nd.ID], through)
		return err
	})
}

// Triple ships every row of A to its column owners (one Sync, which
// assembles the rows of Aᵀ) and multiplies twice.
func (s *Sim) Triple(est [][]int64, a *matrix.Mat[semiring.WH], rho int) error {
	sr, a1, w1 := minPlus(s.sr), plainWeights(a, false), plainWeights(s.w, true)
	return s.run(func(nd *cc.Node) error {
		out := make([]cc.Packet, 0, len(a1.Rows[nd.ID]))
		for _, e := range a1.Rows[nd.ID] {
			out = append(out, cc.Packet{Dst: e.Col, M: cc.Msg{A: e.Val}})
		}
		var at matrix.Row[int64]
		for _, m := range nd.Sync(out) {
			at = append(at, matrix.Entry[int64]{Col: m.Src, Val: m.A})
		}
		aw, err := matmul.Multiply(nd, sr, a1.Rows[nd.ID], w1.Rows[nd.ID], rho)
		if err != nil {
			return err
		}
		awa, err := matmul.Multiply(nd, sr, aw, at, nd.N)
		foldRow(est[nd.ID], awa)
		return err
	})
}

// foldRow folds a sparse row into a dense one.
func foldRow(dst []int64, r matrix.Row[int64]) {
	for _, e := range r {
		dst[e.Col] = min(dst[e.Col], e.Val)
	}
}

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
// SourceDetectKLent, GreedyRows, RunDirect for every β-hop detection,
// FoldThroughSets, KernelMul and FoldMinPlus), Broadcast the vector
// itself, Exchange and Route a transpose, and Mirror and PivotCross a fold
// that reads the senders' rows in place. It keeps no Stats.
type Direct struct {
	ctx      context.Context
	sr       semiring.AugMinPlus
	w        *matrix.Mat[semiring.WH]
	gh       mssp.GH
	beta, wk int
	// Served, when set, hears each detection's graph, β and sources, and
	// whether the certified searches served it (a hook for tests).
	Served func(w *matrix.Mat[semiring.WH], beta int, inS []bool, certified bool)
}

// NewDirect returns the host clique on the graph whose augmented weight
// matrix is w, MSSP detecting beta-hop distances over the G ∪ H of an
// artifact of hop bound beta, which gh resolves only for a detection whose
// certified searches abort (nil and 0 for none). The kernels poll ctx and
// start at most workers goroutines a pass (<= 0 means GOMAXPROCS).
func NewDirect(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], gh mssp.GH, beta, workers int) *Direct {
	return &Direct{ctx: ctx, sr: sr, w: w, gh: gh, beta: beta, wk: workers}
}

func (d *Direct) N() int { return d.w.N }

func (d *Direct) KNearest(k int) (*matrix.Mat[semiring.WH], func(), error) {
	return disttools.KNearestLent[semiring.WH](d.ctx, d.sr, d.w, k, d.wk)
}

func (d *Direct) KNearestRouted(routed *matrix.Mat[semiring.WHF], k int) (*matrix.Mat[semiring.WHF], func(), error) {
	return disttools.KNearestLent[semiring.WHF](d.ctx, routedOf(d.sr), routed, k, d.wk)
}

func (d *Direct) SourceDetect(inS []bool, hops, k int) (*matrix.Mat[semiring.WH], func(), error) {
	return disttools.SourceDetectKLent(d.ctx, d.sr, d.w, inS, hops, k, d.wk)
}

func (d *Direct) Hit(rows []matrix.Row[semiring.WH]) ([]bool, error) {
	return hitting.GreedyRows(d.w.N, rows), nil
}

// MSSP detects by mssp.RunDirect: the certified searches, else the panel
// over the G ∪ H gh resolves.
func (d *Direct) MSSP(inS []bool) ([]int64, error) {
	plane, certified, err := mssp.RunDirect(d.ctx, d.sr, d.w, d.gh, d.beta, inS, d.wk)
	if err == nil && d.Served != nil {
		d.Served(d.w, d.beta, inS, certified)
	}
	return plane, err
}

func (d *Direct) Broadcast(vals []int64) ([]int64, error) { return vals, nil }

func (d *Direct) Exchange(out [][]cc.Packet) ([][]cc.Msg, error) { return transpose(out), nil }

func (d *Direct) Route(out [][]cc.Packet) ([][]cc.Msg, error) { return transpose(out), nil }

func (d *Direct) Phase(string) {}

func (d *Direct) Mirror(est [][]int64, rows *matrix.Mat[semiring.WH]) error {
	for v, r := range rows.Rows {
		for _, e := range r {
			if int(e.Col) != v {
				est[e.Col][v] = min(est[e.Col][v], e.Val.W)
			}
		}
	}
	return nil
}

func (d *Direct) PivotCross(est [][]int64, plane []int64, col []int, add []int64) error {
	q := len(plane) / len(est)
	for v, row := range est {
		if c := col[v]; c >= 0 {
			for u := range row {
				row[u] = min(row[u], semiring.MinPlus{}.Mul(add[v], plane[u*q+c]))
			}
		}
	}
	return nil
}

func (d *Direct) ThroughSets(est [][]int64, sets *matrix.Mat[semiring.WH]) error {
	return disttools.FoldThroughSets(d.ctx, est, sets, func(v semiring.WH) int64 { return v.W }, d.wk)
}

// Triple folds the last product straight into est.
func (d *Direct) Triple(est [][]int64, a *matrix.Mat[semiring.WH], _ int) error {
	a1 := plainWeights(a, false)
	aw := matmul.KernelMul[int64](minPlus(d.sr), a1, plainWeights(d.w, true), d.wk)
	matmul.FoldMinPlus(est, aw, func(v int64) int64 { return v }, a1.Transpose(), d.wk)
	return nil
}

// plainWeights is m's weights without their hops, less the diagonal if
// asked, all rows cut from one backing array.
func plainWeights(m *matrix.Mat[semiring.WH], dropDiagonal bool) *matrix.Mat[int64] {
	out := matrix.New[int64](m.N)
	backing := make([]matrix.Entry[int64], 0, m.NNZ())
	for v, row := range m.Rows {
		start := len(backing)
		for _, en := range row {
			if !dropDiagonal || int(en.Col) != v {
				backing = append(backing, matrix.Entry[int64]{Col: en.Col, Val: en.Val.W})
			}
		}
		out.Rows[v] = backing[start:len(backing):len(backing)]
	}
	return out
}

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
