package disttools

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// weightsOf projects (W,H) rows to the (column, weight) rows the
// restricted path outputs: same support, same order, hops dropped.
func weightsOf(m *matrix.Mat[semiring.WH]) *matrix.Mat[int64] {
	out := matrix.New[int64](m.N)
	for v, r := range m.Rows {
		for _, e := range r {
			out.Rows[v] = append(out.Rows[v], matrix.Entry[int64]{Col: e.Col, Val: e.Val.W})
		}
	}
	return out
}

// simulatedDetect is SourceDetect run at every node of a clique: the
// specification the generic direct SourceDetectAll is anchored to.
func simulatedDetect(t *testing.T, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], inS []bool, d int) *matrix.Mat[semiring.WH] {
	t.Helper()
	out := matrix.New[semiring.WH](w.N)
	_, err := cc.Run(context.Background(), cc.Config{N: w.N}, func(nd *cc.Node) error {
		row, err := SourceDetect(nd, sr, w.Rows[nd.ID], inS, d)
		out.Rows[nd.ID] = row
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// restrictedCase is one (matrix, source set, hop bound) the oracle runs.
type restrictedCase struct {
	name string
	sr   semiring.AugMinPlus
	w    *matrix.Mat[semiring.WH]
	inS  []bool
	d    int
}

// lateHopsCase is a matrix whose (W,H) iteration settles one sweep after
// its weights do: the path 0-1-2-3 of unit edges beside a direct 3-0 entry
// of the same weight 3 that claims 9 hops. U_2 already holds every final
// weight; U_3 only lowers node 3's hop count from 9 to 3.
func lateHopsCase() restrictedCase {
	w := handMatrix(4, [4]int64{0, 1, 1, 1}, [4]int64{1, 2, 1, 1}, [4]int64{2, 3, 1, 1}, [4]int64{0, 3, 3, 9})
	return restrictedCase{"late-hops", semiring.NewAugMinPlus(1<<20, 16), w, []bool{true, false, false, false}, 4}
}

// handMatrix is the symmetric augmented weight matrix of the given
// (u, v, weight, hops) edges, (0,0) diagonal included.
func handMatrix(n int, edges ...[4]int64) *matrix.Mat[semiring.WH] {
	w := matrix.New[semiring.WH](n)
	for v := range w.Rows {
		w.Rows[v] = append(w.Rows[v], matrix.Entry[semiring.WH]{Col: int32(v)})
	}
	for _, e := range edges {
		u, v, val := int(e[0]), int(e[1]), semiring.WH{W: e[2], H: e[3]}
		w.Rows[u] = append(w.Rows[u], matrix.Entry[semiring.WH]{Col: int32(v), Val: val})
		w.Rows[v] = append(w.Rows[v], matrix.Entry[semiring.WH]{Col: int32(u), Val: val})
	}
	for v := range w.Rows {
		w.Rows[v] = matrix.SortRow(w.Rows[v])
	}
	return w
}

func restrictedCases() []restrictedCase {
	var out []restrictedCase
	for _, tc := range []struct {
		name            string
		n, extra, nS, d int
		seed            int64
	}{
		{"one-source", 8, 4, 1, 3, 11},
		{"sparse", 16, 10, 3, 5, 12},
		{"two-steps", 24, 20, 8, 2, 13},
		{"S=V", 32, 16, 32, 6, 14},
		{"tree-d=1", 20, 0, 5, 1, 15}, // U_1 only
		{"S=empty", 24, 12, 0, 4, 16},
		{"d=n", 28, 14, 6, 28, 17},
	} {
		g := randGraph(tc.n, tc.extra, 20, tc.seed)
		rng := rand.New(rand.NewSource(tc.seed + 1000))
		inS := make([]bool, tc.n)
		for len(srcsOf(inS)) < tc.nS {
			inS[rng.Intn(tc.n)] = true
		}
		out = append(out, restrictedCase{tc.name, g.AugSemiring(), g.WeightMatrix(), inS, tc.d})
	}
	return append(out, lateHopsCase())
}

// TestSourceDetectAllRestrictedEquivalence: the weight-plane restricted
// detection has SourceDetectAll's support and weights entry for entry
// across graph shapes, source-set sizes (empty, sparse, all), hop bounds
// (including d=1, no iterations, and d=n) and worker counts. Hop counts
// are not an output of the restricted path, so the reference is projected
// to its weights; the reference itself is held, (W,H) entry for entry, to
// the simulated SourceDetect, so the chain restricted == generic direct
// == simulator has no unpinned link.
func TestSourceDetectAllRestrictedEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range restrictedCases() {
		ref, err := SourceDetectAll[semiring.WH](ctx, tc.sr, tc.w, tc.inS, tc.d, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, tc.name+": SourceDetectAll vs simulated SourceDetect", ref, simulatedDetect(t, tc.sr, tc.w, tc.inS, tc.d))
		want := weightsOf(ref)
		for _, workers := range []int{1, 2, 4, 0} {
			got, err := SourceDetectAllRestricted(ctx, tc.w, tc.inS, tc.d, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, tc.name+": restricted vs SourceDetectAll weights", got, want)
		}
	}
}

// TestSourceDetectAllRestrictedInHeldPass: while another row pass runs, a
// sweep starts at most GOMAXPROCS/2 goroutines (pool.RunRows), and the
// restricted detection still has SourceDetectAll's weights at every worker
// count - over TestSourceDetectAllRestrictedEquivalence's cases and one
// wide enough (n = 256, eight row blocks) for the width to matter.
func TestSourceDetectAllRestrictedInHeldPass(t *testing.T) {
	ctx := context.Background()
	cases := restrictedCases()
	g := randGraph(256, 200, 20, 21)
	inS := make([]bool, g.N)
	for v := 0; v < g.N; v += 9 {
		inS[v] = true
	}
	cases = append(cases, restrictedCase{"wide", g.AugSemiring(), g.WeightMatrix(), inS, 12})
	want := make([]*matrix.Mat[int64], len(cases))
	for c, tc := range cases {
		ref, err := SourceDetectAll[semiring.WH](ctx, tc.sr, tc.w, tc.inS, tc.d, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = weightsOf(ref)
	}
	// A one-row serial pass runs its row on this goroutine and counts as
	// running for as long as the row takes.
	pool.RunRows(1, 1, func() func(int) {
		return func(int) {
			for c, tc := range cases {
				for _, workers := range []int{1, 2, 4, 0} {
					got, err := SourceDetectAllRestricted(ctx, tc.w, tc.inS, tc.d, workers)
					if err != nil {
						t.Fatal(err)
					}
					sameRows(t, tc.name+": restricted in a held pass vs SourceDetectAll weights", got, want[c])
				}
			}
		}
	})
}

// TestSourceDetectPanelSerialSweepAllocs: a serial sweep allocates
// nothing, so a warm serial detection allocates as many objects over 39
// sweeps as over one. The path 0-1-…-63 from source 0 keeps changing
// through all 39 sweeps of d = 40. Skips under -race, where sync.Pool
// drops a share of its Puts.
func TestSourceDetectPanelSerialSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const n = 64
	var edges [][4]int64
	for v := int64(1); v < n; v++ {
		edges = append(edges, [4]int64{v - 1, v, 1, 1})
	}
	w := handMatrix(n, edges...)
	inS := make([]bool, n)
	inS[0] = true
	ctx := context.Background()
	allocs := func(d int) float64 {
		return testing.AllocsPerRun(20, func() {
			p, err := SourceDetectPanel(ctx, w, inS, d, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		})
	}
	if short, long := allocs(2), allocs(40); short != long {
		t.Errorf("a warm serial detection allocates %v objects at d = 2 and %v at d = 40, want the same", short, long)
	}
}

// errAfter is a context whose Err turns context.Canceled from its k-th
// call on (k counts from 1) and which counts the calls: the kernel polls
// once before every sweep, so the count says how many sweeps it was about
// to run.
type errAfter struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestSourceDetectPanelEarlierExit: on a matrix whose hop counts keep
// moving after its weights have settled, the weight-only sweep stops a
// sweep before a (W,H) fixpoint test could, and the weights are still
// the reference's at the full hop bound.
func TestSourceDetectPanelEarlierExit(t *testing.T) {
	tc := lateHopsCase()
	bg := context.Background()
	at := func(d int) *matrix.Mat[semiring.WH] {
		m, err := SourceDetectAll[semiring.WH](bg, tc.sr, tc.w, tc.inS, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	u2, u3 := at(2), at(3)
	if !slices.EqualFunc(weightsOf(u2).Rows, weightsOf(u3).Rows, slices.Equal[matrix.Row[int64]]) || matrix.Equal[semiring.WH](tc.sr, u2, u3) {
		t.Fatal("fixture: U_3 must differ from U_2 in hops only")
	}
	ctx := &errAfter{Context: bg, k: 1 << 30}
	p, err := SourceDetectPanel(ctx, tc.w, tc.inS, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep 1 makes U_2, sweep 2 finds the weights unchanged and ends the
	// loop; the pairs would have needed sweep 3 to see U_4 = U_3.
	if n := ctx.calls.Load(); n != 2 {
		t.Errorf("kernel polled before %d sweeps, want 2", n)
	}
	sameRows(t, "late-hops at d=16", p.Rows(), weightsOf(at(16)))
}

// TestSourceDetectPanelCancel: a context canceled before sweep i returns
// context.Canceled without running sweep i - the kernel polls exactly i
// times - and the buffers a canceled run hands back do not poison the
// pool: the next run's answer is the uncanceled one.
func TestSourceDetectPanelCancel(t *testing.T) {
	bg := context.Background()
	g := fixpointGraphs()["unit-path"] // settles late: every sweep up to d changes a row
	w, d := g.WeightMatrix(), 12
	inS := make([]bool, g.N)
	inS[0], inS[7], inS[g.N-1] = true, true, true
	for _, workers := range []int{1, 0} {
		cold, err := SourceDetectPanel(bg, w, inS, d, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int64{1, 2, 5, int64(d) - 1} {
			ctx := &errAfter{Context: bg, k: i}
			p, err := SourceDetectPanel(ctx, w, inS, d, workers)
			if !errors.Is(err, context.Canceled) || p != nil {
				t.Fatalf("workers=%d cancel before sweep %d: got (%v, %v), want (nil, context.Canceled)", workers, i, p, err)
			}
			if n := ctx.calls.Load(); n != i {
				t.Errorf("workers=%d cancel before sweep %d: kernel polled %d times", workers, i, n)
			}
			next, err := SourceDetectPanel(bg, w, inS, d, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(next.W, cold.W) || !slices.Equal(next.Sources, cold.Sources) {
				t.Fatalf("workers=%d: answer after a cancel before sweep %d differs from the cold one", workers, i)
			}
			next.Release()
		}
	}
}

// TestPanelAnswerNotRecycled: an answer plane is never handed out again
// while scratch planes and released panels are. One answer is held while
// concurrent detections of the same shape and of other shapes (q = 1, 8,
// 64) take from and give back to the pool; the held plane does not change
// and every concurrent answer equals the serial run's.
func TestPanelAnswerNotRecycled(t *testing.T) {
	bg := context.Background()
	g := randGraph(96, 200, 20, 71)
	w, d := g.WeightMatrix(), 8
	sets := map[int][]bool{}
	serial := map[int][]int64{}
	for _, q := range []int{1, 8, 64} {
		inS := make([]bool, g.N)
		for j := 0; j < q; j++ {
			inS[(j*g.N/q+1)%g.N] = true
		}
		p, err := SourceDetectPanel(bg, w, inS, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		sets[q], serial[q] = inS, p.W // kept: never released
	}
	held, err := SourceDetectPanel(bg, w, sets[8], d, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q := []int{8, 1, 64, 8}[(i+worker)%4]
				p, err := SourceDetectPanel(bg, w, sets[q], d, 1+worker%2)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(p.W, serial[q]) {
					t.Errorf("q=%d: concurrent answer differs from the serial run", q)
					return
				}
				if i%2 == 0 {
					p.Release() // an internal consumer; the others keep theirs
				}
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(held.W, serial[8]) {
		t.Fatal("held answer changed under concurrent detections")
	}
}

// TestSourceDetectAllRestrictedDisconnected pins the unreachable case:
// sources in one component must not appear in rows of the other.
func TestSourceDetectAllRestrictedDisconnected(t *testing.T) {
	ctx := context.Background()
	// Two components: a path 0-1-2 and a path 3-4-5.
	w := handMatrix(6, [4]int64{0, 1, 2, 1}, [4]int64{1, 2, 3, 1}, [4]int64{3, 4, 1, 1}, [4]int64{4, 5, 4, 1})
	inS := []bool{true, false, false, true, false, false}
	sr := semiring.NewAugMinPlus(1<<20, 16)
	want, err := SourceDetectAll[semiring.WH](ctx, sr, w, inS, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SourceDetectAllRestricted(ctx, w, inS, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "disconnected: restricted vs SourceDetectAll weights", got, weightsOf(want))
	for v := 0; v < 3; v++ {
		for _, e := range got.Rows[v] {
			if e.Col == 3 {
				t.Fatalf("node %d reached source 3 across components", v)
			}
		}
	}
}

// srcsOf lists the true indices of a membership vector.
func srcsOf(inS []bool) []int {
	var out []int
	for v, s := range inS {
		if s {
			out = append(out, v)
		}
	}
	return out
}
