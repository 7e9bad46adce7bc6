package disttools

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// checkThroughSets folds the through-sets of a sets matrix into a table at
// rest at every worker count and compares it, row for row, with what the
// simulated DistThroughSets returns at each node of a clique: the row's
// entries where it has them, semiring.Inf everywhere else.
func checkThroughSets[E any](t *testing.T, name string, sets *matrix.Mat[E], weight func(E) int64) {
	t.Helper()
	n := sets.N
	sr := semiring.NewMinPlus(1 << 40)
	want := matrix.New[int64](n)
	_, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
		var ests []Est
		for _, e := range sets.Rows[nd.ID] {
			ests = append(ests, Est{W: e.Col, To: weight(e.Val), From: weight(e.Val)})
		}
		row, err := DistThroughSets(nd, sr, ests)
		want.Rows[nd.ID] = row
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		table := make([][]int64, n)
		for v := range table {
			table[v] = make([]int64, n)
			for u := range table[v] {
				table[v][u] = semiring.Inf
			}
		}
		if err := FoldThroughSets(context.Background(), table, sets, weight, workers); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			row := make([]int64, n)
			for u := range row {
				row[u] = semiring.Inf
			}
			for _, e := range want.Rows[v] {
				row[e.Col] = e.Val
			}
			if !slices.Equal(table[v], row) {
				t.Fatalf("%s workers=%d: node %d folds to %v, the simulated row is %v", name, workers, v, table[v], want.Rows[v])
			}
		}
	}
}

// TestFoldThroughSetsMatchesSimulated anchors the direct through-sets
// step to the collective one on the two shapes the APSP variants feed it:
// k-nearest rows over the augmented semiring (weighted line 3, unweighted
// line 6) and arbitrary plain-weight sets with empty and singleton members
// (unweighted line 4's hitting-set rows).
func TestFoldThroughSetsMatchesSimulated(t *testing.T) {
	g := randGraph(40, 60, 9, 11)
	knear, err := KNearestAll[semiring.WH](context.Background(), g.AugSemiring(), g.WeightMatrix(), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkThroughSets(t, "k-nearest rows", knear, func(v semiring.WH) int64 { return v.W })

	rng := rand.New(rand.NewSource(5))
	n := 36
	sets := matrix.New[int64](n)
	mp := semiring.NewMinPlus(1 << 40)
	for v := 0; v < n; v++ {
		for c := 0; c < v%5; c++ { // every fifth node has an empty set
			sets.Set(mp, v, rng.Intn(n), rng.Int63n(50)+1)
		}
	}
	checkThroughSets(t, "random sets", sets, func(v int64) int64 { return v })
}

// TestFoldThroughSetsCancel: the fold keeps the one poll DistThroughSetsAll
// had, before anything is built, and a dead context leaves the table alone.
func TestFoldThroughSetsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := matrix.New[int64](2)
	sets.Rows[0] = matrix.Row[int64]{{Col: 1, Val: 1}}
	sets.Rows[1] = matrix.Row[int64]{{Col: 1, Val: 1}}
	table := [][]int64{{semiring.Inf, semiring.Inf}, {semiring.Inf, semiring.Inf}}
	if err := FoldThroughSets(ctx, table, sets, func(v int64) int64 { return v }, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if table[0][1] != semiring.Inf {
		t.Error("a canceled fold wrote to the table")
	}
}

// allocatedBy is the bytes one call of fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSourceDetectKAllBytesFollowSources pins the slab width rule on the
// one kind whose k arrives over the wire: rows are as wide as the smaller
// of k and |S|, so a detection with k = n and two sources allocates
// O(n·|S|) - two slabs of at most n·2 entries, their row headers, one
// worker's n-sized scratch - and not two slabs with a window per product
// of every row (|S| per neighbor: 0.8 MB at this n and degree), which is
// all that k alone would promise.
func TestSourceDetectKAllBytesFollowSources(t *testing.T) {
	const n = 512
	g := randGraph(n, 3*n, 10, 9)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	inS := make([]bool, n)
	inS[3], inS[400] = true, true
	var got *matrix.Mat[semiring.WH]
	bytes := allocatedBy(func() {
		var err error
		if got, _, err = SourceDetectKLent(context.Background(), sr, w, inS, 6, n, 1); err != nil {
			t.Fatal(err)
		}
	})
	// 2 slabs · n·2 entries · 24 B + 2 · n headers · 24 B + scratch
	// (accumulators, touched list, row buffer, rank scratch: ~70 B · n).
	if budget := uint64(2*n*2*24 + 2*n*24 + 96*n + 4<<10); bytes > budget {
		t.Errorf("k=n, |S|=2 at n=%d allocates %d bytes, want <= %d: the slabs follow k, not the sources", n, bytes, budget)
	}
	sameRows(t, "k=n, |S|=2", got, sourceDetectKAllRef[semiring.WH](sr, w, inS, 6, n))
}

// TestKNearestAllResultIsNotReused: the matrix KNearestAll returns lives
// in a slab of that call's own products, so a later call - same inputs or
// not, any worker count - never writes to it, and its rows end at their
// own capacity: an append to one cannot reach the next. Run under -race.
func TestKNearestAllResultIsNotReused(t *testing.T) {
	g := randGraph(100, 150, 9, 21)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	for _, workers := range []int{1, 2, 4, 0} {
		first, err := KNearestAll(context.Background(), sr, w, 6, workers)
		if err != nil {
			t.Fatal(err)
		}
		held := matrix.New[semiring.WH](first.N)
		for v, r := range first.Rows {
			held.Rows[v] = slices.Clone(r)
		}
		for _, k := range []int{6, 3, 9} {
			if _, err := KNearestAll(context.Background(), sr, w, k, workers); err != nil {
				t.Fatal(err)
			}
		}
		sameRows(t, "held result after later calls", first, held)
		for v := 0; v+1 < first.N; v++ {
			_ = append(first.Rows[v], matrix.Entry[semiring.WH]{Col: -7})
		}
		sameRows(t, "held result after appends to its rows", first, held)
	}
}

// pollCtx is a context whose Err turns context.Canceled from its k-th call
// on and counts the calls.
type pollCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestKNearestLentCancel: a search polls once before its pass and once
// per block of rows, and canceled at any of those polls it polls no more,
// returns context.Canceled with neither rows nor release, and has given
// its state back - the next search takes a state over instead of
// allocating a slab - and answers exactly what a cold search does. The
// pool may hold other released states, some without a slab (KNearestAll
// keeps its own), so the hand-over gets a few tries; a search that kept
// its state drains the pool and fails every one. The bytes are checked
// without -race, where the pool keeps what it is given. Run under -race
// too. The routed search (KNearestRouted) is held to the same, its cold
// answer the routed squarings.
func TestKNearestLentCancel(t *testing.T) {
	g := randGraph(100, 150, 9, 31)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	const k = 7
	checkKNearestLentCancel(t, "WH", k, knearestAllRef[semiring.WH](sr, w, k), func(ctx context.Context, workers int) (*matrix.Mat[semiring.WH], func(), error) {
		return KNearestLent(ctx, sr, w, k, workers)
	})
	checkKNearestLentCancel(t, "routed", k, knearestAllRef[semiring.WHF](routedSemiring(g), routedMatrix(w), k), func(ctx context.Context, workers int) (*matrix.Mat[semiring.WHF], func(), error) {
		return KNearestRouted(ctx, sr, w, k, workers)
	})
}

// checkKNearestLentCancel cancels lent, a lent k-nearest search, at each
// of its polls; cold is its answer.
func checkKNearestLentCancel[E comparable](t *testing.T, name string, k int, cold *matrix.Mat[E], lent func(ctx context.Context, workers int) (*matrix.Mat[E], func(), error)) {
	t.Helper()
	n := cold.N
	slab := uint64(n*k) * uint64(unsafe.Sizeof(matrix.Entry[E]{}))
	for _, workers := range []int{1, 0} {
		full := &pollCtx{Context: context.Background(), k: math.MaxInt64}
		_, release, err := lent(full, workers)
		if err != nil {
			t.Fatal(err)
		}
		release()
		polls := full.calls.Load()
		if want := int64(1 + (n+pollRows-1)/pollRows); polls != want {
			t.Fatalf("%s workers=%d: a full search polled %d times, want %d (once, then once per block)", name, workers, polls, want)
		}
		for p := int64(1); p <= polls; p++ {
			var bytes uint64
			for try := 0; try < 4 && (try == 0 || bytes >= slab); try++ {
				ctx := &pollCtx{Context: context.Background(), k: p}
				rows, release, err := lent(ctx, workers)
				if !errors.Is(err, context.Canceled) || rows != nil || release != nil {
					t.Fatalf("%s workers=%d: canceled at poll %d of %d: got (%v, %v), want context.Canceled and nothing else", name, workers, p, polls, rows != nil, err)
				}
				if c := ctx.calls.Load(); c != p {
					t.Fatalf("%s workers=%d: canceled at poll %d of %d, the search polled %d times", name, workers, p, polls, c)
				}
				var next *matrix.Mat[E]
				bytes = allocatedBy(func() {
					if next, release, err = lent(context.Background(), workers); err != nil {
						t.Fatal(err)
					}
				})
				sameRows(t, fmt.Sprintf("%s workers=%d after a cancel at poll %d", name, workers, p), next, cold)
				release()
			}
			if !raceEnabled && bytes >= slab {
				t.Errorf("%s workers=%d: every search after a cancel at poll %d allocated a slab (%d bytes, a slab is %d): the canceled ones kept their state", name, workers, p, bytes, slab)
			}
		}
	}
}

// sweepsRef is how many sweeps SourceDetectKLent runs, one poll each: the
// d-1 products, or fewer when a product changes nothing.
func sweepsRef(sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], inS []bool, d, k int) int64 {
	u := sourceDetectKAllRef[semiring.WH](sr, w, inS, 1, k)
	sweeps := int64(0)
	for i := 1; i < d; i++ {
		sweeps++
		next := matmul.KernelMulFilteredGeneric[semiring.WH](sr, w, u, k, 1)
		if matrix.Equal[semiring.WH](sr, next, u) {
			break
		}
		u = next
	}
	return sweeps
}

// TestSourceDetectKLentCancel: a detection polls once before each sweep,
// and canceled at any of those polls it polls no more, returns
// context.Canceled with neither rows nor release, and has given its state
// back - the next detection takes a state over instead of allocating an
// answer slab - and answers exactly what the d-1 products do. The
// hand-over gets a few tries, as in TestKNearestLentCancel; the bytes are
// checked without -race. Run under -race too.
func TestSourceDetectKLentCancel(t *testing.T) {
	g := randGraph(100, 40, 9, 33)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	inS := make([]bool, g.N)
	for _, v := range rand.New(rand.NewSource(7)).Perm(g.N)[:20] {
		inS[v] = true
	}
	const d, k = 30, 4
	cold := sourceDetectKAllRef[semiring.WH](sr, w, inS, d, k)
	slab := uint64(g.N*k) * uint64(unsafe.Sizeof(matrix.Entry[semiring.WH]{}))
	for _, workers := range []int{1, 0} {
		full := &pollCtx{Context: context.Background(), k: math.MaxInt64}
		_, release, err := SourceDetectKLent(full, sr, w, inS, d, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		release()
		polls := full.calls.Load()
		if want := sweepsRef(sr, w, inS, d, k); polls != want || polls < 3 {
			t.Fatalf("workers=%d: a full detection polled %d times, want one per sweep: %d (at least 3)", workers, polls, want)
		}
		for p := int64(1); p <= polls; p++ {
			var bytes uint64
			for try := 0; try < 4 && (try == 0 || bytes >= slab); try++ {
				ctx := &pollCtx{Context: context.Background(), k: p}
				rows, release, err := SourceDetectKLent(ctx, sr, w, inS, d, k, workers)
				if !errors.Is(err, context.Canceled) || rows != nil || release != nil {
					t.Fatalf("workers=%d: canceled at poll %d of %d: got (%v, %v), want context.Canceled and nothing else", workers, p, polls, rows != nil, err)
				}
				if c := ctx.calls.Load(); c != p {
					t.Fatalf("workers=%d: canceled at poll %d of %d, the detection polled %d times", workers, p, polls, c)
				}
				var next *matrix.Mat[semiring.WH]
				bytes = allocatedBy(func() {
					if next, release, err = SourceDetectKLent(context.Background(), sr, w, inS, d, k, workers); err != nil {
						t.Fatal(err)
					}
				})
				sameRows(t, fmt.Sprintf("workers=%d after a cancel at poll %d", workers, p), next, cold)
				release()
			}
			if !raceEnabled && bytes >= slab {
				t.Errorf("workers=%d: every detection after a cancel at poll %d allocated a slab (%d bytes, a slab is %d): the canceled ones kept their state", workers, p, bytes, slab)
			}
		}
	}
}

// lentDetections builds the graph and the three source sets (|S| = 2, 20,
// n) the lent-answer tests detect on, and a run that detects at one step,
// checks it against the reference and returns its answer header and
// release.
func lentDetections(t *testing.T) (n int, run func(workers, set, d, k int) (*matrix.Mat[semiring.WH], func())) {
	g := randGraph(3*pollRows+5, 150, 9, 35)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	rng := rand.New(rand.NewSource(9))
	sets := make([][]bool, 3)
	for i, q := range []int{2, 20, g.N} {
		sets[i] = make([]bool, g.N)
		for _, v := range rng.Perm(g.N)[:q] {
			sets[i][v] = true
		}
	}
	return g.N, func(workers, set, d, k int) (*matrix.Mat[semiring.WH], func()) {
		t.Helper()
		got, release, err := SourceDetectKLent(context.Background(), sr, w, sets[set], d, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("workers=%d |S| set %d d=%d k=%d", workers, set, d, k), got, sourceDetectKAllRef[semiring.WH](sr, w, sets[set], d, k))
		return got, release
	}
}

// TestSourceDetectKLentLifetime: a lent answer stays intact, and its rows
// capacity-clipped, until it is released, whatever other detections run
// meanwhile, and no detection takes over the state of an answer still
// lent. Run under -race: the rows of one sweep are written by several
// workers.
func TestSourceDetectKLentLifetime(t *testing.T) {
	n, run := lentDetections(t)
	for _, workers := range []int{1, 2, 4, 0} {
		held, releaseHeld := run(workers, 1, 6, 5)
		heldRows := make([]matrix.Row[semiring.WH], held.N)
		for v, r := range held.Rows {
			heldRows[v] = slices.Clone(r)
		}
		for _, step := range [][3]int{{2, 9, n}, {1, 3, 1}, {0, 9, 3}, {2, 2, 7}} {
			got, release := run(workers, step[0], step[1], step[2])
			if got == held {
				t.Fatalf("workers=%d: a detection took over the state of an answer still lent", workers)
			}
			release()
		}
		sameRows(t, fmt.Sprintf("workers=%d: the held answer after later detections", workers), held, &matrix.Mat[semiring.WH]{N: held.N, Rows: heldRows})
		for v := 0; v+1 < held.N; v++ {
			if len(held.Rows[v]) > 0 && cap(held.Rows[v]) != len(held.Rows[v]) {
				t.Fatalf("workers=%d: row %d has capacity %d past its %d entries", workers, v, cap(held.Rows[v]), len(held.Rows[v]))
			}
			_ = append(held.Rows[v], matrix.Entry[semiring.WH]{Col: -7})
		}
		sameRows(t, fmt.Sprintf("workers=%d: the held answer after appends to its rows", workers), held, &matrix.Mat[semiring.WH]{N: held.N, Rows: heldRows})
		releaseHeld()
	}
}

// TestSourceDetectKLentRecycled: a released state taken over by the next
// detection of its n answers exactly what the d-1 products do, whatever
// the last user's k, |S| and d - the slot width a narrow detection left
// does not stay narrow - and whatever worker count either ran at: one
// released at workers 4 is taken over at 1 and one released at 1 at 4.
// Taking over shows as the same answer header. Run under -race: the rows
// of one sweep are written by several workers.
func TestSourceDetectKLentRecycled(t *testing.T) {
	n, run := lentDetections(t)
	for _, workers := range []int{1, 2, 4, 0} {
		var last *matrix.Mat[semiring.WH]
		reused := 0
		for _, step := range [][3]int{{1, 6, 5}, {2, 9, n}, {1, 3, 1}, {0, 9, 3}, {2, 2, 7}, {1, 9, n}, {0, 6, 2}} {
			got, release := run(workers, step[0], step[1], step[2])
			if got == last {
				reused++
			}
			release()
			last = got
		}
		if !raceEnabled && reused == 0 {
			t.Errorf("workers=%d: no detection took over a released state", workers)
		}
	}
	// Across worker counts. The pool may miss a Put (under -race it drops
	// a share of them), so each hand-over gets a few tries.
	for _, counts := range [][2]int{{4, 1}, {1, 4}} {
		taken := false
		for try := 0; try < 20 && !taken; try++ {
			released, release := run(counts[0], 2, 9, 3)
			release()
			got, release := run(counts[1], 1, 4, 6)
			taken = got == released
			release()
		}
		if !taken {
			t.Errorf("no detection at workers %d took over a state released at %d", counts[1], counts[0])
		}
	}
}
