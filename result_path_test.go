package ccsp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// TestQueryAllocsIndependentOfN pins the result path's O(1) shape
// (DESIGN.md §13): a warm direct-mode mssp query allocates the kernel's
// answer plane, one slice of row headers and the response, a distance only
// the response - nothing per node - so the count is the same small number
// at n = 128 and n = 512, up to the handful of closures each extra
// detection sweep costs (TestMSSPKernelBytes and TestDistanceKernelBytes
// below hold the bytes). Before the
// one-materialisation rule it was 3n+. A knearest query is one search per
// row in a recycled search state (one worker's scratch, the arcs, an
// answer slab and its row headers, allocated once per pool), then one
// backing array of neighbors; an apsp
// adds the estimate table, the through-sets transpose, the hitting-set
// inputs and an MSSP, each one backing array and one set of headers - 2n+
// allocations before the kernels stopped building anything per node.
func TestQueryAllocsIndependentOfN(t *testing.T) {
	ctx := context.Background()
	reqs := []api.Request{api.Distance(1, 100), api.MSSP(0, 9, 18, 27, 36, 45, 54, 63), api.KNearest(8), api.APSP(api.APSPWeighted)}
	budget := map[api.Kind][2]float64{ // allocations per query, spread between the two sizes
		api.KindDistance: {100, 16},
		api.KindMSSP:     {100, 16},
		api.KindKNearest: {64, 16},
		api.KindAPSP:     {200, 32},
	}
	counts := make(map[api.Kind][]float64)
	for _, n := range []int{128, 512} {
		eng, err := NewEngine(ctx, testGraph(n, 3*n, 10, int64(n)), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := eng.Query(ctx, req); err != nil {
					t.Fatal(err)
				}
			})
			if allocs >= budget[req.Kind][0] {
				t.Errorf("n=%d %s: %v allocs per warm query, want < %v", n, req.Kind, allocs, budget[req.Kind][0])
			}
			counts[req.Kind] = append(counts[req.Kind], allocs)
		}
	}
	for kind, c := range counts {
		if math.Abs(c[0]-c[1]) > budget[kind][1] {
			t.Errorf("%s: %v allocs at n=128 but %v at n=512: the result path allocates per node again", kind, c[0], c[1])
		}
	}
}

// TestMSSPKernelBytes pins what a warm direct-mode MSSP allocates in
// bytes (DESIGN.md §13, "who owns which buffer"): the n·q·8-byte answer
// plane, the n row headers over it (24 bytes each, plus the up to 1/8 the
// allocator's size classes round a slice of that size up by), and a slack
// of 2 KiB for everything that does not grow with n - the q source IDs,
// the result and its Stats, the sweeps' closures. The engine's membership
// vector comes from its pool (memberships). A second plane (n·q·8) coming
// back into the kernel breaks it at every size below, an n-sized index or
// source vector (n·4) at n = 1024.
//
// The test runs on one P with the collector off (both restored on
// cleanup; an explicit collection drops each engine build's garbage): a
// pooled plane sits in the per-P slot of the P that put it, and a
// collection moves it toward the victim cache, so a call that lands on
// another P or after two collections misses the pool and allocates one
// plane more - n·q·8 / 20 over the mean, about once in 60-100 runs before
// (ROADMAP 7f). Neither changes what a warm call allocates.
func TestMSSPKernelBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: the scratch plane is not reliably warm")
	}
	onePNoGC(t)
	const slack = 2 << 10
	ctx := context.Background()
	for _, n := range []int{256, 1024} {
		eng, err := NewEngine(ctx, testGraph(n, 3*n, 10, int64(n)), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		for _, q := range []int{1, 8} {
			sources := spreadSources(n, q)
			got := meanWarmBytes(func() {
				if _, err := eng.MSSP(ctx, sources); err != nil {
					t.Fatal(err)
				}
			})
			if budget := uint64(n*q*8 + n*27 + slack); got > budget {
				t.Errorf("n=%d q=%d: a warm MSSP allocates %d bytes, want <= %d (answer %d + row headers %d + slack %d)",
					n, q, got, budget, n*q*8, n*27, slack)
			}
		}
	}
}

// onePNoGC runs the rest of the test on one P with the collector off, both
// restored on cleanup: the byte pins' harness (TestMSSPKernelBytes says
// why).
func onePNoGC(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// meanWarmBytes is what one warm call of query allocates: the mean of 20
// calls after one that merges the artifact mats and fills the pools.
func meanWarmBytes(query func()) uint64 {
	query()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// spreadSources is q sources spread evenly over n nodes.
func spreadSources(n, q int) []int {
	sources := make([]int, q)
	for i := range sources {
		sources[i] = (i*n/q + 1) % n
	}
	return sources
}

// TestDistanceKernelBytes pins what a warm direct-mode distance allocates
// in bytes (DESIGN.md §13, "a point answer reads one cell"): 4 KiB for
// everything that does not grow with n - the plan, the response, the
// Stats, the sweeps' closures - and nothing that does. The detection plane
// goes back to the pool once its one cell is read, and the membership
// vector once the detection returns, so a warm call takes all three from
// there (measured: 544 bytes at both sizes; TestDirectCertifiedAllocs
// counts the vector); shaping the n×1 answer (an 8·n plane kept plus 24·n
// of row headers, as before the one-cell read) breaks it at both sizes.
// Same harness as TestMSSPKernelBytes: one P, collector off, the mean of
// 20 calls.
func TestDistanceKernelBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: the detection planes are not reliably warm")
	}
	onePNoGC(t)
	const slack = 4 << 10
	ctx := context.Background()
	for _, n := range []int{256, 1024} {
		eng, err := NewEngine(ctx, testGraph(n, 3*n, 10, int64(n)), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		req := api.Distance(1, n/2+3)
		got := meanWarmBytes(func() {
			if _, err := eng.Query(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
		if got > slack {
			t.Errorf("n=%d: a warm distance allocates %d bytes, want <= %d", n, got, slack)
		}
	}
}

// TestDistancePlaneRecycled is TestPanelAnswerNotRecycled lifted to the
// engine: while 400 distance queries hand their planes back to the pool,
// concurrent mssp (q = 1 and 8) and apsp queries on the same direct engine
// take planes from it. Every MSSP answer held across all of that - the
// ones taken before and the ones taken during - still equals a cold
// engine's, and so does every distance and APSP answer.
func TestDistancePlaneRecycled(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(64, 96, 10, 17)
	opts := Options{Epsilon: 0.5, Execution: ExecDirect}
	cold, err := NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := gr.N()
	sources := [][]int{{5}, {0, 9, 18, 27, 36, 45, 54, 63}}
	wantMSSP := make([][][]int64, len(sources))
	for i, s := range sources {
		res, err := cold.MSSP(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		wantMSSP[i] = res.Dist
	}
	wantAPSP, err := cold.APSP(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pair := func(i int) api.Request { return api.Distance(i%n, (i*7+3)%n) }
	wantDist := make([]*api.Response, n)
	for i := range wantDist {
		if wantDist[i], err = cold.Query(ctx, pair(i)); err != nil {
			t.Fatal(err)
		}
	}

	type held struct {
		i    int
		dist [][]int64
	}
	var mu sync.Mutex
	var kept []held
	keep := func(i int) error {
		res, err := eng.MSSP(ctx, sources[i])
		if err != nil {
			return err
		}
		mu.Lock()
		kept = append(kept, held{i, res.Dist})
		mu.Unlock()
		return nil
	}
	for i := range sources {
		if err := keep(i); err != nil {
			t.Fatal(err)
		}
	}
	const distances, goroutines = 400, 4
	errs := make(chan error, 2*goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := g; i < distances; i += goroutines {
				got, err := eng.Query(ctx, pair(i))
				if err != nil {
					errs <- err
					return
				}
				if want := wantDist[i%n]; !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("distance %d: %+v, want %+v", i, got.Distance, want.Distance)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if g == 0 && i%3 == 0 {
					a, err := eng.APSP(ctx)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(a.Dist, wantAPSP.Dist) {
						errs <- fmt.Errorf("apsp %d differs from a cold engine's", i)
						return
					}
					continue
				}
				if err := keep((g + i) % len(sources)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, h := range kept {
		if !reflect.DeepEqual(h.dist, wantMSSP[h.i]) {
			t.Errorf("a held mssp answer from %v changed after %d recycled distance planes", sources[h.i], distances)
		}
	}
}

// TestLentAnswerRecycled is TestDistancePlaneRecycled for lent answers:
// four goroutines answer mssp (q = 1, 8 and n - the last a plane the size
// of the n×n table), all three apsp variants, a distance, knearest at
// k = 4…11 and a source detection through Plan.Answer on one direct
// engine, each read before its release - which hands back its plane or
// backing and the row or list headers cut over it - while one of them
// also takes and holds owned Engine.MSSP, Engine.APSP, Engine.KNearest and
// Engine.SourceDetection answers. Every lent answer equals a cold
// engine's, and so does every held answer after all the releases.
// internal/server has its namesake for the daemon's release point.
func TestLentAnswerRecycled(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(64, 96, 10, 17)
	opts := Options{Epsilon: 0.5, Execution: ExecDirect}
	cold, err := NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := gr.N()
	all, detectFrom := spreadSources(n, n), spreadSources(n, 5)
	reqs := []api.Request{api.MSSP(5), api.MSSP(spreadSources(n, 8)...), api.MSSP(all...),
		api.APSP(api.APSPWeighted), api.APSP(api.APSPWeighted3), api.APSP(api.APSPUnweighted), api.Distance(3, 40),
		api.SourceDetection(detectFrom, 6, 3)}
	for k := 4; k <= 11; k++ {
		reqs = append(reqs, api.KNearest(k))
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, err := cold.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
	}
	type held struct {
		mssp, apsp      [][]int64
		knear, detected [][]Neighbor
	}
	// ask takes one set of owned answers from e.
	ask := func(e *Engine) (h held, err error) {
		m, err := e.MSSP(ctx, all)
		if err != nil {
			return h, err
		}
		a, err := e.APSP(ctx)
		if err != nil {
			return h, err
		}
		kn, err := e.KNearest(ctx, 11)
		if err != nil {
			return h, err
		}
		sd, err := e.SourceDetection(ctx, detectFrom, 6, 3)
		if err != nil {
			return h, err
		}
		return held{m.Dist, a.Dist, kn.Neighbors, sd.Detected}, nil
	}
	wantHeld, err := ask(cold)
	if err != nil {
		t.Fatal(err)
	}

	var kept []held // touched by goroutine 0 alone until Wait
	keep := func() error {
		h, err := ask(eng)
		if err == nil {
			kept = append(kept, h)
		}
		return err
	}
	if err := keep(); err != nil {
		t.Fatal(err)
	}
	const answers, goroutines = 24 * 16, 4
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < answers; i += goroutines {
				if g == 0 && i%len(reqs) == 0 {
					if err := keep(); err != nil {
						errs <- err
						return
					}
				}
				j := i % len(reqs)
				p, err := eng.Plan(reqs[j])
				if err != nil {
					errs <- err
					return
				}
				resp, release, err := p.Answer(ctx)
				if err != nil {
					errs <- err
					return
				}
				got, err := json.Marshal(resp)
				release()
				if err != nil || !bytes.Equal(got, want[j]) {
					errs <- fmt.Errorf("lent answer %d to %+v differs from a cold engine's (%v)", i, reqs[j], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, h := range kept {
		if !reflect.DeepEqual(h, wantHeld) {
			t.Errorf("held answers %d changed after %d lent answers were released", i, answers)
		}
	}
}

// warmBytes is what one warm call of query allocates, for the two
// large-answer pins below: the least of runs calls. An APSP allocates more
// than the live heap per call, so the collector runs inside most calls and
// now and then empties the pool its MSSP stage takes its planes from; such
// a call reads n·|A|·8 high and says nothing about the kernels pinned
// here. (TestMSSPKernelBytes, whose calls are small, holds the mean.)
func warmBytes(runs int, query func()) uint64 {
	query() // warm: artifact mats merged, scratch pooled
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		query()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestAPSPKernelBytes pins what a warm direct-mode (2+ε) weighted APSP
// allocates (DESIGN.md §13, "large answers allocate the answer"): the
// n²·8-byte table that is the answer, plus c·n·⌈√n⌉ for what is sized by
// the k = ⌈√n⌉ nearest of every node, c = 28 bytes: the through-sets
// transpose W₂ (16 per entry) and the hitting set's column sets and
// inverted index (4 + 4) make 24, the allocator's size classes the rest.
// 224·n covers every n-sized vector (~80·n of row headers - table, W₂, both
// set lists; ~40·n of pivots, counts and memberships; the hitting set's
// own), 8 KiB what does not grow. The k-nearest searches' answer slab,
// its row headers, the arcs and the worker scratch come from a recycled
// search state, and the MSSP planes from their pool, all warm. Measured
// (least of five): 120 104 B besides the table at n = 256 and 809 128 at
// n = 1024. A search state not given back (a slab at 24 per entry, arcs
// at 16), a second W₂ or a materialised through-sets product (16 bytes per
// touched cell, ~n² of them) breaks it at n = 1024. The objects are held
// too, at n = 1024: 40 for the (2+ε) variant and 34 for the (3+ε) one,
// as measured (the MSSP's certified searches hand over the plane and
// hitting.Members the source list, one object, so detect builds none), so a step that sends its messages through Route or Exchange instead of
// folding them in place (DESIGN.md §12) fails here, not only in bytes. It runs on one P with
// the collector off, as TestMSSPKernelBytes does and for its reason: a
// call that lands on another P than the one that put the MSSP's
// plane back, or after two collections, allocates that plane again
// (n·|A|·8, 278 528 B at n = 1024), and under `go test ./...` five such
// calls in a row have failed it by 90 KB.
func TestAPSPKernelBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: the MSSP planes and the search state are not reliably warm")
	}
	onePNoGC(t)
	ctx := context.Background()
	for _, n := range []int{256, 1024} {
		eng, err := NewEngine(ctx, testGraph(n, 3*n, 10, int64(n)), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		got := warmBytes(5, func() {
			if _, err := eng.APSPWeighted(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if budget := uint64(n*n*8) + apspScratchBudget(n); got > budget {
			t.Errorf("n=%d: a warm APSP allocates %d bytes, want <= %d (table %d + 28·n·√n + 224·n + 8 KiB)",
				n, got, budget, n*n*8)
		}
	}
	eng, err := NewEngine(ctx, testGraph(1024, 3*1024, 10, 1024), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, most := range map[api.APSPVariant]float64{api.APSPWeighted: 40, api.APSPWeighted3: 34} {
		got := testing.AllocsPerRun(5, func() {
			if _, err := eng.apspByVariant(ctx, v); err != nil {
				t.Fatal(err)
			}
		})
		if got > most {
			t.Errorf("n=1024: a warm %s APSP allocates %v objects, want <= %v", v, got, most)
		}
	}
}

// apspScratchBudget is what a warm weighted APSP may allocate besides its
// n²·8-byte table: 28·n·⌈√n⌉ + 224·n + 8 KiB (TestAPSPKernelBytes).
func apspScratchBudget(n int) uint64 {
	k := int(math.Ceil(math.Sqrt(float64(n))))
	return uint64(28*n*k + 224*n + 8<<10)
}

// TestLentAnswerBytes pins what lending saves (DESIGN.md §13, "the result
// path"): a warm Plan.Answer followed by its release allocates nothing
// that grows with n - neither a plane or table nor a neighbor backing, nor
// the row or list headers over them, nor a membership vector. An mssp at
// q = 8, a knearest at k = 4 and 11 and a source detection each allocate
// at most 4 KiB, the same at both sizes - the response, the source list,
// the sweeps' closures, the release - measured as TestMSSPKernelBytes
// does (816, 960, 960 and 1 636 bytes at both sizes); a weighted apsp
// allocates TestAPSPKernelBytes' budget less the n²·8-byte table and the
// n·27 of its row headers, the least of five calls (warmBytes). An answer that is not given back breaks every one, the
// mssp by its n·q·8-byte plane, a neighbor list by its 32·n·k-byte
// backing, and headers that are not given back break the four flat ones
// at n = 1024 (24 KiB).
func TestLentAnswerBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: a released buffer is not reliably pooled")
	}
	onePNoGC(t)
	ctx := context.Background()
	for _, n := range []int{256, 1024} {
		eng, err := NewEngine(ctx, testGraph(n, 3*n, 10, int64(n)), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		answer := func(req api.Request) func() {
			p, err := eng.Plan(req)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				_, release, err := p.Answer(ctx)
				if err != nil {
					t.Fatal(err)
				}
				release()
			}
		}
		const flat = 4 << 10
		for _, tc := range []struct {
			name string
			req  api.Request
		}{
			{"mssp q=8", api.MSSP(spreadSources(n, 8)...)},
			{"knearest k=4", api.KNearest(4)},
			{"knearest k=11", api.KNearest(11)},
			{"source_detection", api.SourceDetection(spreadSources(n, 5), 6, 3)},
		} {
			if got := meanWarmBytes(answer(tc.req)); got > flat {
				t.Errorf("n=%d: a warm lent %s allocates %d bytes, want <= %d", n, tc.name, got, flat)
			}
		}
		if got, budget := warmBytes(5, answer(api.APSP(api.APSPWeighted))), apspScratchBudget(n)-uint64(n*27); got > budget {
			t.Errorf("n=%d: a warm lent apsp allocates %d bytes, want <= %d (TestAPSPKernelBytes' budget without the %d-byte table and the %d of row headers)",
				n, got, budget, n*n*8, n*27)
		}
	}
}

// TestKNearestKernelBytes pins what a warm direct-mode k-nearest query
// allocates: the answer's own backing array (32 bytes per Neighbor, at most
// n·k of them), its n list headers (n·27, as TestMSSPKernelBytes counts
// them) and 4 KiB for what does not grow with n - measured, 388 408 bytes
// at n = 1024, k = 11 against a budget of 392 192. The searches run over
// the engine's weight matrix, their first hops tracked beside the keys
// (disttools.KNearestRouted): the routed answer slab, its row headers, the
// arcs and the per-worker scratch come from a recycled search state; one
// that is not given back (a slab of 32-byte routed entries, 32·n·k)
// breaks it, and so does per-call n-sized scratch.
func TestKNearestKernelBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: the search state is not reliably warm")
	}
	ctx := context.Background()
	for _, n := range []int{256, 1024} {
		eng, err := NewEngine(ctx, testGraph(n, 3*n, 10, int64(n)), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{4, 11} {
			got := warmBytes(10, func() {
				if _, err := eng.KNearest(ctx, k); err != nil {
					t.Fatal(err)
				}
			})
			if budget := uint64(32*n*k + 27*n + 4<<10); got > budget {
				t.Errorf("n=%d k=%d: a warm k-nearest allocates %d bytes, want <= %d (answer 32·n·k %d + list headers %d + 4 KiB)",
					n, k, got, budget, 32*n*k, 27*n)
			}
		}
	}
}

// TestSSSPKernelBytes pins what a warm direct-mode exact SSSP allocates
// (Theorem 33): it builds the k-shortcut graph, k = ⌈n^{5/6}⌉, so its
// bytes grow as n·k ≈ n^{11/6} - 47.7 MB at n = 1024 - and nothing caps
// them yet (ROADMAP item 8); this keeps them from growing unseen. Each of
// the at most n·k shortcuts is an outgoing packet, a delivered message
// and two shortcut-row entries (the k-nearest entry and the routed one):
// 48 + 40 + 2·24 bytes, plus the allocator's up to 1/8 of rounding. Each
// row also copies G's row (2m + n entries of 24 bytes, rounded the same),
// each Bellman-Ford iteration broadcasts an n-vector, 128·n covers the
// n-sized headers and vectors and 16 KiB what does not grow. Measured
// (least of three): 3.91 MB of 4.10 allowed at n = 256, 13.66 of 14.46 at
// n = 512. A second copy of the shortcut rows (24·n·k) breaks it, and so
// does a search state that is not given back.
func TestSSSPKernelBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: the k-nearest search state is not reliably warm")
	}
	onePNoGC(t)
	ctx := context.Background()
	perShortcut := unsafe.Sizeof(cc.Packet{}) + unsafe.Sizeof(cc.Msg{}) + 2*unsafe.Sizeof(matrix.Entry[semiring.WH]{})
	entry := unsafe.Sizeof(matrix.Entry[semiring.WH]{})
	for _, n := range []int{256, 512} {
		m := 3 * n
		eng, err := NewEngine(ctx, testGraph(n, m, 10, int64(n)), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		iters := 0
		got := warmBytes(3, func() {
			res, err := eng.SSSP(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			iters = res.Iterations
		})
		k := int(math.Ceil(math.Pow(float64(n), 5.0/6.0)))
		shortcuts := uint64(n*k) * uint64(perShortcut) * 9 / 8
		graphRows := uint64(2*m+n) * uint64(entry) * 9 / 8
		if budget := shortcuts + graphRows + uint64(iters*n*8+128*n+16<<10); got > budget {
			t.Errorf("n=%d k=%d: a warm exact SSSP allocates %d bytes, want <= %d (shortcuts %d + G's rows %d + %d broadcasts + 128·n + 16 KiB)",
				n, k, got, budget, shortcuts, graphRows, iters)
		}
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

// cancelAtEveryPoll runs ask on a warm direct-mode engine under a context
// that dies at its k-th poll, for every k a full run reaches: each run must
// return ErrCanceled over context.Canceled and no answer, and the query
// after it must answer exactly what a cold engine does - nothing an aborted
// run left behind (a pooled plane, a half-written slab) is ever served.
func cancelAtEveryPoll[R any](t *testing.T, minPolls int64, ask func(context.Context, *Engine) (R, error)) {
	t.Helper()
	bg := context.Background()
	newEng := func() *Engine {
		eng, err := NewEngine(bg, testGraph(96, 120, 10, 23), Options{Epsilon: 0.5, Execution: ExecDirect})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	cold, err := ask(bg, newEng())
	if err != nil {
		t.Fatal(err)
	}
	eng := newEng()
	if _, err := ask(bg, eng); err != nil { // builds whatever artifact ask needs
		t.Fatal(err)
	}
	full := &pollCtx{Context: bg, k: math.MaxInt64}
	if _, err := ask(full, eng); err != nil {
		t.Fatal(err)
	}
	polls := full.calls.Load()
	if polls < minPolls {
		t.Fatalf("a full query polled ctx only %d times, want >= %d: a kernel loop is not covered", polls, minPolls)
	}
	var zero R
	for k := int64(1); k <= polls; k++ {
		res, err := ask(&pollCtx{Context: bg, k: k}, eng)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) || !reflect.DeepEqual(res, zero) {
			t.Fatalf("canceled at poll %d of %d: got (%v, %v), want ErrCanceled", k, polls, res, err)
		}
		next, err := ask(bg, eng)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next, cold) {
			t.Fatalf("the query after a cancel at poll %d differs from a cold engine's", k)
		}
	}
}

// TestDirectMSSPCancel: a direct-mode MSSP whose context dies at any of
// its polls - on entry, before any detection sweep - is canceled cleanly,
// and the buffers the aborted sweep hands back do not poison the kernel's
// pool.
func TestDirectMSSPCancel(t *testing.T) {
	cancelAtEveryPoll(t, 3, func(ctx context.Context, eng *Engine) ([][]int64, error) {
		res, err := eng.MSSP(ctx, []int{0, 17, 40})
		if err != nil {
			return nil, err
		}
		return res.Dist, nil
	})
}

// TestDirectKNearestCancel: the k-nearest search polls before its row
// pass and once per block of rows, and a k-nearest query canceled at any
// of them hands out nothing of its search state.
func TestDirectKNearestCancel(t *testing.T) {
	cancelAtEveryPoll(t, 3, func(ctx context.Context, eng *Engine) ([][]Neighbor, error) {
		res, err := eng.KNearest(ctx, 9)
		if err != nil {
			return nil, err
		}
		return res.Neighbors, nil
	})
}

// TestDirectAPSPCancel: an APSP polls on entry, through each k-nearest
// search, once before each through-sets fold and once per MSSP sweep - the unweighted
// variant twice over, on G and on G' - and the (3+ε) one skips the fold;
// canceled at any of them it returns no table, releases the planes it
// took, and the next APSP is a cold engine's.
func TestDirectAPSPCancel(t *testing.T) {
	for v, minPolls := range map[api.APSPVariant]int64{api.APSPWeighted: 6, api.APSPWeighted3: 5, api.APSPUnweighted: 8} {
		t.Run(string(v), func(t *testing.T) {
			cancelAtEveryPoll(t, minPolls, func(ctx context.Context, eng *Engine) ([][]int64, error) {
				res, err := eng.apspByVariant(ctx, v)
				if err != nil {
					return nil, err
				}
				return res.Dist, nil
			})
		})
	}
}

// TestDirectSSSPCancel: an exact SSSP polls on entry and through its
// k-nearest search (the Bellman-Ford rounds that follow are not polled);
// canceled at any of them it returns no distances.
func TestDirectSSSPCancel(t *testing.T) {
	cancelAtEveryPoll(t, 4, func(ctx context.Context, eng *Engine) (*SSSPResult, error) {
		res, err := eng.SSSP(ctx, 7)
		if err != nil {
			return nil, err
		}
		res.Stats = Stats{}
		return res, nil
	})
}

// TestDirectSourceDetectionCancel: (S, d, k)-detection polls on entry and
// once per filtered product; canceled at any of them it hands out neither
// slab.
func TestDirectSourceDetectionCancel(t *testing.T) {
	cancelAtEveryPoll(t, 6, func(ctx context.Context, eng *Engine) ([][]Neighbor, error) {
		res, err := eng.SourceDetection(ctx, []int{0, 17, 40, 77}, 12, 3)
		if err != nil {
			return nil, err
		}
		return res.Detected, nil
	})
}

// TestDirectDiameterCancel: the §7.2 estimate polls on entry, through its
// k-nearest search and once per sweep of each of its two MSSP stages;
// canceled at any of them it returns no estimate and releases the stages'
// planes.
func TestDirectDiameterCancel(t *testing.T) {
	cancelAtEveryPoll(t, 6, func(ctx context.Context, eng *Engine) (int64, error) {
		res, err := eng.Diameter(ctx)
		if err != nil {
			return 0, err
		}
		return res.Estimate, nil
	})
}

// TestDirectDistanceCancel: a distance answered by Plan.Answer - the
// one-cell read that hands its plane back to the pool - canceled at any
// poll returns ErrCanceled, and the next answer is a cold engine's, so a
// half-swept plane is neither served nor read.
func TestDirectDistanceCancel(t *testing.T) {
	cancelAtEveryPoll(t, 3, func(ctx context.Context, eng *Engine) (*api.Response, error) {
		return eng.Query(ctx, api.Distance(17, 58))
	})
}

// splitGraph is two 4-node paths with no edge between them: every pair
// across the halves is unreachable.
func splitGraph() *Graph {
	gr := NewGraph(8)
	for _, e := range [][3]int64{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {4, 5, 2}, {5, 6, 4}, {6, 7, 1}} {
		gr.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	return gr
}

// TestWireSentinelsNeverLeak pins who may rewrite a result in place: Plan.Run
// turns Unreachable into the wire's -1 inside the result it just computed
// and owns; the public Engine methods, asked the same question afterwards,
// still report Unreachable, in both execution modes.
func TestWireSentinelsNeverLeak(t *testing.T) {
	ctx := context.Background()
	for _, exec := range []Execution{ExecSimulated, ExecDirect} {
		eng, err := NewEngine(ctx, splitGraph(), Options{Epsilon: 0.5, Execution: exec})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []api.Request{api.MSSP(0, 5), api.SSSP(0), api.APSP(api.APSPAuto), api.Distance(0, 5)} {
			resp, err := eng.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			switch req.Kind {
			case api.KindMSSP:
				if resp.MSSP.Dist[7][0] != api.Unreachable || resp.MSSP.Dist[0][1] != api.Unreachable {
					t.Errorf("%s mssp: wire form must carry -1, got %v", exec, resp.MSSP.Dist)
				}
			case api.KindSSSP:
				if resp.SSSP.Dist[4] != api.Unreachable {
					t.Errorf("%s sssp: wire form must carry -1, got %v", exec, resp.SSSP.Dist)
				}
			case api.KindAPSP:
				if resp.APSP.Dist[0][4] != api.Unreachable {
					t.Errorf("%s apsp: wire form must carry -1, got %v", exec, resp.APSP.Dist[0])
				}
			case api.KindDistance:
				if resp.Distance.Reachable || resp.Distance.Distance != api.Unreachable {
					t.Errorf("%s distance: got %+v", exec, resp.Distance)
				}
			}
		}
		m, err := eng.MSSP(ctx, []int{0, 5})
		if err != nil {
			t.Fatal(err)
		}
		if m.Dist[7][0] != Unreachable || m.Dist[0][1] != Unreachable || m.Dist[3][0] != 6 {
			t.Errorf("%s: Engine.MSSP after Query = %v, want Unreachable across the halves", exec, m.Dist)
		}
		s, err := eng.SSSP(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Dist[4] != Unreachable || s.Dist[3] != 6 {
			t.Errorf("%s: Engine.SSSP after Query = %v", exec, s.Dist)
		}
		a, err := eng.APSP(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if a.Dist[0][4] != Unreachable || a.Dist[7][3] != Unreachable || a.Dist[0][0] != 0 {
			t.Errorf("%s: Engine.APSP after Query row 0 = %v", exec, a.Dist[0])
		}
	}
}

// TestResultRowsAreCapacityClipped: result rows are windows of one backing
// array, so each must end at its own capacity - an append to row v
// reallocates instead of writing into row v+1.
func TestResultRowsAreCapacityClipped(t *testing.T) {
	ctx := context.Background()
	for _, exec := range []Execution{ExecSimulated, ExecDirect} {
		eng, err := NewEngine(ctx, testGraph(12, 12, 9, 5), Options{Epsilon: 0.5, Execution: exec})
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.MSSP(ctx, []int{2, 7})
		if err != nil {
			t.Fatal(err)
		}
		next := append([]int64(nil), m.Dist[4]...)
		_ = append(m.Dist[3], -7, -7)
		if !reflect.DeepEqual(m.Dist[4], next) {
			t.Errorf("%s: append to MSSP row 3 overwrote row 4: %v, want %v", exec, m.Dist[4], next)
		}
		a, err := eng.APSP(ctx)
		if err != nil {
			t.Fatal(err)
		}
		next = append([]int64(nil), a.Dist[4]...)
		_ = append(a.Dist[3], -7)
		if !reflect.DeepEqual(a.Dist[4], next) {
			t.Errorf("%s: append to APSP row 3 overwrote row 4", exec)
		}
		k, err := eng.KNearest(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		nextNb := append([]Neighbor(nil), k.Neighbors[4]...)
		_ = append(k.Neighbors[3], Neighbor{Node: -7})
		if !reflect.DeepEqual(k.Neighbors[4], nextNb) {
			t.Errorf("%s: append to KNearest list 3 overwrote list 4: %v, want %v", exec, k.Neighbors[4], nextNb)
		}
	}
}
