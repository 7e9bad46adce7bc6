package clique

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// cliques returns the simulated and the direct clique on a seeded graph,
// MSSP running over one hopset the simulator built.
func cliques(t *testing.T) (*Sim, *Direct) {
	t.Helper()
	ctx := context.Background()
	g := graphgen.Connected(24, 40, graphgen.Weights{Max: 7}, 5)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	board := hitting.NewBoard(g.N)
	results := make([]*hopset.Result, g.N)
	if _, err := cc.Run(ctx, cc.Config{N: g.N}, func(nd *cc.Node) (err error) {
		results[nd.ID], err = hopset.Build(nd, sr, w.Rows[nd.ID], board, hopset.Practical(0.5))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	art, err := hopset.Collect(results)
	if err != nil {
		t.Fatal(err)
	}
	return NewSim(ctx, cc.Config{N: g.N}, sr, w, art), NewDirect(ctx, sr, w, mssp.Built{M: mssp.MergeGH(sr, w, art)}, art.Beta, 0)
}

// TestSimMatchesDirect: every primitive answers the same on both
// backends, so a theorem written over Clique does too.
func TestSimMatchesDirect(t *testing.T) {
	sim, direct := cliques(t)
	n := sim.N()
	if direct.N() != n {
		t.Fatalf("N: direct %d, simulated %d", direct.N(), n)
	}
	same := func(what string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: direct error %v, simulated error %v", what, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: direct %v, simulated %v", what, got, want)
		}
	}
	sk, sRelease, sErr := sim.KNearest(6)
	dk, dRelease, dErr := direct.KNearest(6)
	if sErr != nil || dErr != nil {
		t.Fatalf("KNearest: direct error %v, simulated error %v", dErr, sErr)
	}
	defer sRelease()
	defer dRelease()
	same("KNearest", dk.Rows, sk.Rows, nil, nil)
	sHit, sErr := sim.Hit(sk.Rows)
	dHit, dErr := direct.Hit(dk.Rows)
	same("Hit", dHit, sHit, dErr, sErr)
	sPlane, sErr := sim.MSSP(sHit)
	dPlane, dErr := direct.MSSP(dHit)
	same("MSSP", dPlane, sPlane, dErr, sErr)
	disttools.ReleasePlane(dPlane)

	// Both lending primitives: k-nearest at a k below n and one above it,
	// detection at a d below the hop diameter and one above n.
	for _, k := range []int{6, n + 3} {
		sr, sRelease, sErr := sim.KNearestRouted(k)
		dr, dRelease, dErr := direct.KNearestRouted(k)
		same(fmt.Sprintf("KNearestRouted(k=%d)", k), rowsOf(dr), rowsOf(sr), dErr, sErr)
		sRelease()
		dRelease()
	}
	inS := make([]bool, n)
	for v := range inS {
		inS[v] = v%4 == 1
	}
	for _, dk := range [][2]int{{2, 3}, {n + 5, 4}} {
		sd, sRelease, sErr := sim.SourceDetect(inS, dk[0], dk[1])
		dd, dRelease, dErr := direct.SourceDetect(inS, dk[0], dk[1])
		same(fmt.Sprintf("SourceDetect(d=%d, k=%d)", dk[0], dk[1]), rowsOf(dd), rowsOf(sd), dErr, sErr)
		sRelease()
		dRelease()
	}

	vals := make([]int64, n)
	out := make([][]cc.Packet, n)
	for v := range vals {
		vals[v] = int64(3 * v)
		for u := v % 3; u < n; u += 5 {
			out[v] = append(out[v], cc.Packet{Dst: int32(u), M: cc.Msg{A: int64(v), B: int64(u)}})
		}
	}
	sAll, sErr := sim.Broadcast(vals)
	dAll, dErr := direct.Broadcast(vals)
	same("Broadcast", dAll, sAll, dErr, sErr)
	same("Broadcast vector", sAll, vals, nil, nil)
	// An empty inbox may be nil or not: compare the messages.
	inboxes := func(what string, d, s [][]cc.Msg, dErr, sErr error) {
		t.Helper()
		same(what, dErr == nil && sErr == nil && slices.EqualFunc(d, s, slices.Equal[[]cc.Msg]), true, dErr, sErr)
	}
	sIn, sErr := sim.Exchange(out)
	dIn, dErr := direct.Exchange(out)
	inboxes("Exchange", dIn, sIn, dErr, sErr)
	// Route may carry many packets per link: send each one three times.
	for v := range out {
		out[v] = append(append(out[v], out[v]...), out[v]...)
	}
	sIn, sErr = sim.Route(out)
	dIn, dErr = direct.Route(out)
	inboxes("Route", dIn, sIn, dErr, sErr)
}

// rowsOf is m's rows, nil for no matrix.
func rowsOf[E any](m *matrix.Mat[E]) []matrix.Row[E] {
	if m == nil {
		return nil
	}
	return m.Rows
}

// TestSimCapsTheTotal: MaxRounds caps the sum of a Sim's runs, so the
// run that crosses it fails with ErrRoundLimit even though it alone fits.
func TestSimCapsTheTotal(t *testing.T) {
	g := graphgen.Path(8, graphgen.Weights{}, 1)
	capped := NewSim(context.Background(), cc.Config{N: g.N, MaxRounds: 2}, g.AugSemiring(), g.WeightMatrix(), nil)
	vals := make([]int64, g.N)
	for i := 0; i < 2; i++ {
		if _, err := capped.Broadcast(vals); err != nil {
			t.Fatalf("broadcast %d of a 2-round budget: %v", i+1, err)
		}
	}
	if _, err := capped.Broadcast(vals); !errors.Is(err, cc.ErrRoundLimit) {
		t.Fatalf("a third broadcast on a 2-round budget: got %v, want ErrRoundLimit", err)
	}
}

// TestFoldsMatch: the four steps that fold into an estimate table leave
// the same table on both backends, and Sim.On's clique adds its runs to
// the Stats it came from.
func TestFoldsMatch(t *testing.T) {
	sim, direct := cliques(t)
	n := sim.N()
	table := func() [][]int64 {
		est := make([][]int64, n)
		for v := range est {
			est[v] = make([]int64, n)
			for u := range est[v] {
				est[v][u] = semiring.Inf
			}
			est[v][v] = 0
		}
		return est
	}
	sEst, dEst := table(), table()
	check := func(what string, sErr, dErr error) {
		t.Helper()
		if sErr != nil || dErr != nil {
			t.Fatalf("%s: direct error %v, simulated error %v", what, dErr, sErr)
		}
		if !reflect.DeepEqual(dEst, sEst) {
			t.Fatalf("%s: the direct table differs from the simulated one", what)
		}
	}
	knear, release, err := sim.KNearest(5)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	check("Mirror", sim.Mirror(sEst, knear), direct.Mirror(dEst, knear))
	check("ThroughSets", sim.ThroughSets(sEst, knear), direct.ThroughSets(dEst, knear))
	inA, err := sim.Hit(knear.Rows)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := sim.MSSP(inA)
	if err != nil {
		t.Fatal(err)
	}
	col, add := make([]int, n), make([]int64, n)
	for v := range col {
		col[v], add[v] = -1, int64(v%4)
		if v%3 != 0 {
			col[v] = v % (len(plane) / n)
		}
	}
	check("PivotCross", sim.PivotCross(sEst, plane, col, add), direct.PivotCross(dEst, plane, col, add))
	check("Triple", sim.Triple(sEst, knear, n), direct.Triple(dEst, knear, n))

	before := sim.Stats.TotalRounds()
	if _, err := sim.On(sim.w, nil).Broadcast(add); err != nil {
		t.Fatal(err)
	}
	if got := sim.Stats.TotalRounds(); got != before+1 {
		t.Errorf("a broadcast on the clique On another graph: %d rounds, want %d", got, before+1)
	}
}
