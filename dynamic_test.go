package ccsp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/graphgen"
)

// allKindRequests is one request per api kind (plus the apsp3 variant),
// the coverage set for differential checks.
func allKindRequests() map[string]api.Request {
	return map[string]api.Request{
		"sssp":             {Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 3}},
		"mssp":             {Kind: api.KindMSSP, MSSP: &api.MSSPParams{Sources: []int{2, 5, 2}}},
		"apsp-auto":        {Kind: api.KindAPSP},
		"apsp-weighted3":   {Kind: api.KindAPSP, APSP: &api.APSPParams{Variant: api.APSPWeighted3}},
		"distance":         {Kind: api.KindDistance, Distance: &api.DistanceParams{From: 2, To: 9}},
		"diameter":         {Kind: api.KindDiameter},
		"knearest":         {Kind: api.KindKNearest, KNearest: &api.KNearestParams{K: 3}},
		"source-detection": {Kind: api.KindSourceDetection, SourceDetection: &api.SourceDetectionParams{Sources: []int{0, 5}, D: 3, K: 2}},
	}
}

// edgeSet flattens a graph into its canonical pair->weight map.
func edgeSet(gr *Graph) map[[2]int]int64 {
	edges := make(map[[2]int]int64)
	for u := 0; u < gr.N(); u++ {
		u := u
		gr.Neighbors(u, func(v int, w int64) {
			if u < v {
				edges[[2]int{u, v}] = w
			}
		})
	}
	return edges
}

// TestDynamicDifferentialAllKinds pins the central guarantee of the
// mutation subsystem: after a batch of inserts, reweights and deletes,
// a DynamicEngine answers every query kind identically - results AND
// stats - to a cold engine built from scratch on the final graph. Both
// execution modes, and on the host a family whose detections certify and
// one whose detections abort (grid 32×32: hop depth 62 against β = 40),
// where the rebuilt engine builds its base hopset at the first fallback
// and a G ∪ H of the previous generation would answer the old graph. The
// simulator rebuilds its base hopset eagerly; the host builds none until
// a detection aborts, on the rebuilt engine and on the cold host engine
// alike, which a NewEngine readies as a rebuild does. (On the grid the
// simulator's build alone takes minutes, so there the cold host engine
// stands in for the oracle; TestDirectCertifiedFamilies holds a host
// engine on a grid that falls back to the simulated engine.) The APSP
// requests build the ε/2 hopset before their detections on the simulator,
// and on the host only where one aborts: on the cycle (hop depth 128
// against the ε/2 β of 64), so there the lazy ε/2 build runs under the
// rebuilt == cold oracle, once per engine, while the other direct rows,
// whose APSP detections certify, list no ε/2 build at all.
func TestDynamicDifferentialAllKinds(t *testing.T) {
	ups := []EdgeUpdate{
		{U: 0, V: 1, W: 3},   // reweight (the spanning edge {1,0} always exists)
		{U: 2, V: 9, W: 7},   // insert-or-reweight
		{U: 4, V: 11, W: -1}, // delete (maybe a no-op)
	}
	for _, tc := range []struct {
		name      string
		exec      Execution
		gr        *Graph
		fallsBack bool
		// halfBuilds is the number of ε/2 builds on G an engine lists
		// after the requests.
		halfBuilds int
	}{
		{"simulated", ExecSimulated, testGraph(16, 16, 9, 3), false, 1},
		{"direct", ExecDirect, testGraph(16, 16, 9, 3), false, 0},
		{"direct-grid=32x32", ExecDirect, &Graph{g: graphgen.Grid(32, 32, graphgen.Weights{Max: 10}, 1024+17)}, true, 0},
		{"direct-cycle", ExecDirect, &Graph{g: graphgen.Cycle(256, graphgen.Weights{Max: 10}, 256+17)}, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			gr, n := tc.gr, tc.gr.N()
			opts := Options{Epsilon: 0.5, Execution: tc.exec}
			eng, err := NewEngine(ctx, gr, opts)
			if err != nil {
				t.Fatal(err)
			}
			dyn := NewDynamicEngine(eng)
			defer dyn.Close()
			epoch, err := dyn.Update(ctx, ups)
			if err != nil {
				t.Fatal(err)
			}
			if epoch != 1 || dyn.Epoch() != 1 {
				t.Fatalf("epoch = %d (Epoch() %d), want 1", epoch, dyn.Epoch())
			}

			// Expected final graph: the update semantics replayed by hand
			// on the original edge set.
			edges := edgeSet(gr)
			for _, u := range ups {
				key := [2]int{u.U, u.V}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if u.W < 0 {
					delete(edges, key)
				} else {
					edges[key] = u.W
				}
			}
			final := NewGraph(n)
			for key, w := range edges {
				final.MustAddEdge(key[0], key[1], w)
			}
			cold, err := NewEngine(ctx, final, opts)
			if err != nil {
				t.Fatal(err)
			}
			// The rebuilt engine and the cold one are readied alike: the
			// base hopset up front on the simulator, on the host at the
			// first detection that aborts.
			for _, c := range []struct {
				what string
				eng  *Engine
			}{{"the rebuilt engine", dyn.Engine()}, {"the cold engine", cold}} {
				eager := 0
				if tc.exec == ExecSimulated {
					eager = 1
				}
				if got := len(c.eng.PreprocessStats().Builds); got != eager {
					t.Fatalf("%s lists %d builds before its first detection, want %d", c.what, got, eager)
				}
				if _, err := c.eng.MSSP(ctx, []int{2, 5}); err != nil {
					t.Fatal(err)
				}
				builds := c.eng.PreprocessStats().Builds
				if tc.fallsBack {
					eager = 1
				}
				if len(builds) != eager || eager == 1 && builds[0].Kind != "hopset" {
					t.Fatalf("%s after its first detection: builds %+v, want %d of the base hopset", c.what, builds, eager)
				}
			}

			reqs := allKindRequests()
			if len(reqs) < len(api.Kinds()) {
				t.Fatalf("differential covers %d kinds, schema has %d", len(reqs), len(api.Kinds()))
			}
			for name, req := range reqs {
				want, err := cold.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s: cold: %v", name, err)
				}
				got, err := dyn.Engine().Query(ctx, req)
				if err != nil {
					t.Fatalf("%s: dynamic: %v", name, err)
				}
				got.Cached, want.Cached = false, false
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: rebuilt engine differs from cold engine on the final graph\n got %+v\nwant %+v", name, got, want)
				}
			}
			for _, c := range []struct {
				what string
				eng  *Engine
			}{{"the rebuilt engine", dyn.Engine()}, {"the cold engine", cold}} {
				half := 0
				for _, b := range c.eng.PreprocessStats().Builds {
					if b.Kind == "hopset" && b.Eps == 0.25 {
						half++
					}
				}
				if half != tc.halfBuilds {
					t.Errorf("%s lists %d ε/2 builds after the requests, want %d", c.what, half, tc.halfBuilds)
				}
			}
		})
	}
}

// TestDynamicEngineConcurrentSwaps is the torture test behind the
// "readers never block, never mix epochs" claim, run under -race: while
// a writer publishes generations back-to-back, readers snapshot the
// engine, query it, and check (a) the per-reader epoch sequence is
// monotone, and (b) every answer equals the canonical answer of the
// epoch it was served at - an answer straddling a swap would disagree
// with both neighbors.
func TestDynamicEngineConcurrentSwaps(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(12, 10, 9, 7)
	eng, err := NewEngine(ctx, gr, Options{Epsilon: 0.5, Execution: ExecDirect})
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamicEngine(eng)
	defer dyn.Close()

	const generations = 8
	req := api.Request{Kind: api.KindDistance, Distance: &api.DistanceParams{From: 0, To: 11}}
	var byEpoch sync.Map // epoch -> *api.Response, first answer wins
	canonical := func(e *Engine) *api.Response {
		resp, err := e.Query(ctx, req)
		if err != nil {
			t.Errorf("query at epoch %d: %v", e.Epoch(), err)
			return nil
		}
		resp.Cached = false
		return resp
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				e := dyn.Engine() // one atomic load: a single-epoch view
				epoch := e.Epoch()
				if epoch < last {
					t.Errorf("reader saw epoch go backwards: %d after %d", epoch, last)
					return
				}
				last = epoch
				got := canonical(e)
				if got == nil {
					return
				}
				want, _ := byEpoch.LoadOrStore(epoch, got)
				if !reflect.DeepEqual(got, want.(*api.Response)) {
					t.Errorf("epoch %d answered inconsistently:\n got %+v\nwant %+v", epoch, got, want)
					return
				}
			}
		}()
	}

	for i := 0; i < generations; i++ {
		// Reweight one spanning edge per generation so every swap changes
		// real distances.
		epoch, err := dyn.Update(ctx, []EdgeUpdate{{U: i + 1, V: 0, W: int64(10 + i)}})
		if err != nil {
			t.Fatalf("generation %d: %v", i, err)
		}
		if epoch != uint64(i+1) {
			t.Fatalf("generation %d published at epoch %d", i, epoch)
		}
	}
	close(done)
	wg.Wait()
	if got := dyn.Epoch(); got != generations {
		t.Fatalf("final epoch = %d, want %d", got, generations)
	}
}

// TestGraphMutationAfterNewEngineInvisible is the regression test for
// the silent-mutation hazard: AddEdge on the input graph after the
// engine is built must not leak into served answers (the engine owns a
// deep copy; DynamicEngine is the supported mutation path).
func TestGraphMutationAfterNewEngineInvisible(t *testing.T) {
	ctx := context.Background()
	gr := NewGraph(4)
	gr.MustAddEdge(0, 1, 1)
	gr.MustAddEdge(1, 2, 1)
	gr.MustAddEdge(2, 3, 1)
	eng, err := NewEngine(ctx, gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.SSSP(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the caller's graph under the engine: a shortcut that would
	// change dist(0,3) from 3 to 1 if the engine shared storage.
	gr.MustAddEdge(0, 3, 1)

	if got := eng.Graph().M(); got != 3 {
		t.Fatalf("engine graph has %d edges after caller mutation, want 3", got)
	}
	after, err := eng.SSSP(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Dist, after.Dist) {
		t.Fatalf("caller AddEdge leaked into the engine: %v -> %v", before.Dist, after.Dist)
	}
	if after.Dist[3] != 3 {
		t.Fatalf("dist(0,3) = %d, want 3 (engine must not see the shortcut)", after.Dist[3])
	}
}

// TestSnapshotEpochRoundTrip: Save persists the engine's epoch, Load
// restores it, and a DynamicEngine wrapped around the loaded engine
// resumes the generation sequence instead of reusing burned numbers.
func TestSnapshotEpochRoundTrip(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(10, 8, 9, 5)
	eng, err := NewEngine(ctx, gr, Options{Epsilon: 0.5, Execution: ExecDirect})
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamicEngine(eng)
	for i := 0; i < 3; i++ {
		if _, err := dyn.Update(ctx, []EdgeUpdate{{U: 0, V: 9, W: int64(i + 2)}}); err != nil {
			t.Fatal(err)
		}
	}
	dyn.Close()

	var buf bytes.Buffer
	if err := dyn.Engine().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Epoch(); got != 3 {
		t.Fatalf("loaded epoch = %d, want 3", got)
	}

	dyn2 := NewDynamicEngine(loaded)
	defer dyn2.Close()
	epoch, err := dyn2.Update(ctx, []EdgeUpdate{{U: 1, V: 2, W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 {
		t.Fatalf("resumed sequence published at %d, want 4", epoch)
	}
}

// cancelAtPoll is a context canceled at its k-th Err call, Done channel
// and all, so that a query waiting on a build it started sees the cancel
// as a waiter would.
type cancelAtPoll struct {
	context.Context
	cancel context.CancelFunc
	k      int64
	calls  atomic.Int64
}

func newCancelAtPoll(k int64) *cancelAtPoll {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAtPoll{Context: ctx, cancel: cancel, k: k}
}

func (c *cancelAtPoll) Err() error {
	if c.calls.Add(1) >= c.k {
		c.cancel()
	}
	return c.Context.Err()
}

// TestDynamicLazyFallbackConcurrent: on a direct DynamicEngine over a grid
// whose detections abort (hop depth 50 against β = 32), readers race each
// rebuilt engine's first fallbacks - the builds of its base hopset - while
// a writer publishes generations, and every other reader query is canceled
// at a random poll: in the certified searches, mid-build or in the panel.
// A canceled query returns ErrCanceled; every answer equals a cold
// engine's on the graph of the epoch that served it, so a canceled build
// was neither cached nor handed to a live waiter; and a served engine
// holds the base hopset once. Run under -race.
func TestDynamicLazyFallbackConcurrent(t *testing.T) {
	ctx := context.Background()
	gr := &Graph{g: graphgen.Grid(4, 48, graphgen.Weights{Max: 9}, 11)}
	n := gr.N()
	opts := Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 2}
	sources := []int{0, n - 1}
	ask := func(ctx context.Context, e *Engine) ([][]int64, error) {
		res, err := e.MSSP(ctx, sources)
		if err != nil {
			return nil, err
		}
		return res.Dist, nil
	}

	// full is the polls of one fallback that builds the base hopset.
	lazy, err := newEngine(gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	probe := newCancelAtPoll(math.MaxInt64)
	if _, err := ask(probe, lazy); err != nil {
		t.Fatal(err)
	}
	if len(lazy.PreprocessStats().Builds) != 1 {
		t.Fatal("the probe did not fall back to the base hopset")
	}
	full := probe.calls.Load()

	eng, err := NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamicEngine(eng)
	defer dyn.Close()

	type served struct {
		eng  *Engine
		dist [][]int64
	}
	var byEpoch sync.Map // epoch -> served, first answer wins
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				e := dyn.Engine()
				qctx := context.Context(ctx)
				if i%2 == 1 {
					qctx = newCancelAtPoll(1 + rng.Int63n(full))
				}
				dist, err := ask(qctx, e)
				if err != nil {
					if qctx == ctx || !errors.Is(err, ErrCanceled) {
						t.Errorf("epoch %d: %v", e.Epoch(), err)
						return
					}
					continue
				}
				got, _ := byEpoch.LoadOrStore(e.Epoch(), served{e, dist})
				if !reflect.DeepEqual(got.(served).dist, dist) {
					t.Errorf("epoch %d answered inconsistently", e.Epoch())
					return
				}
			}
		}()
	}

	const generations = 6
	for i := 0; i < generations; i++ {
		epoch, err := dyn.Update(ctx, []EdgeUpdate{{U: 0, V: 1, W: int64(2 + i)}, {U: n - 2, V: n - 1, W: int64(9 - i)}})
		if err != nil {
			t.Fatalf("generation %d: %v", i, err)
		}
		for !t.Failed() {
			if _, ok := byEpoch.Load(epoch); ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
	wg.Wait()

	byEpoch.Range(func(epoch, v any) bool {
		s := v.(served)
		cold, err := NewEngine(ctx, s.eng.Graph(), opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ask(ctx, cold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.dist, want) {
			t.Errorf("epoch %d: the rebuilt engine's answer differs from a cold engine's", epoch)
		}
		if builds := s.eng.PreprocessStats().Builds; len(builds) != 1 {
			t.Errorf("epoch %d: %d builds, want the base hopset once", epoch, len(builds))
		}
		return true
	})
}

// TestEngineLazyFallbackConcurrent: a cold host NewEngine over a grid whose
// detections abort (hop depth 50 against β = 32) holds no artifact, and
// concurrent first MSSPs race its one build of the base hopset, every
// other one canceled at a random poll (raceFirstQueries). No rebuild is
// involved. Run under -race.
func TestEngineLazyFallbackConcurrent(t *testing.T) {
	gr := &Graph{g: graphgen.Grid(4, 48, graphgen.Weights{Max: 9}, 11)}
	sources := []int{0, gr.N() - 1}
	raceFirstQueries(t, gr, (*Engine).baseKey, func(ctx context.Context, e *Engine) ([][]int64, error) {
		res, err := e.MSSP(ctx, sources)
		if err != nil {
			return nil, err
		}
		return res.Dist, nil
	})
}

// TestEngineLazyAPSPConcurrent: a cold host NewEngine over a cycle whose
// APSP detections abort (hop depth 96 against the ε/2 β of 64) holds no
// artifact, and concurrent first APSPWeighted calls race its one build of
// the ε/2 hopset, every other one canceled at a random poll
// (raceFirstQueries). Run under -race.
func TestEngineLazyAPSPConcurrent(t *testing.T) {
	gr := &Graph{g: graphgen.Cycle(192, graphgen.Weights{Max: 9}, 13)}
	raceFirstQueries(t, gr, (*Engine).apspKey, func(ctx context.Context, e *Engine) ([][]int64, error) {
		res, err := e.APSPWeighted(ctx)
		if err != nil {
			return nil, err
		}
		return res.Dist, nil
	})
}

// raceFirstQueries is the body of the lazy-build race tests: on fresh
// host engines over gr, each listing no build, six concurrent first asks
// race the engine's one build of the hopset at key, every other ask
// canceled at a random poll of a full ask that builds it: in the certified
// searches, mid-build (the initiator's cancel is taken over by a live
// waiter) or in the panel. A canceled ask returns ErrCanceled, every other
// answer equals that of an engine that built alone, and the engine ends
// holding that one build.
func raceFirstQueries(t *testing.T, gr *Graph, key func(*Engine) artifactKey, ask func(context.Context, *Engine) ([][]int64, error)) {
	t.Helper()
	ctx := context.Background()
	opts := Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 2}
	fresh := func() *Engine {
		t.Helper()
		eng, err := NewEngine(ctx, gr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if builds := len(eng.PreprocessStats().Builds); builds != 0 {
			t.Fatalf("a host NewEngine lists %d builds, want 0", builds)
		}
		return eng
	}
	// builtOnce reports whether eng lists exactly one build: key's.
	builtOnce := func(eng *Engine) bool {
		k := key(eng)
		builds := eng.PreprocessStats().Builds
		return len(builds) == 1 && builds[0].Kind == k.variant.String() && builds[0].Eps == k.params.Eps
	}

	// want and full: the answer and polls of one ask that falls back
	// alone and builds the hopset.
	probe := newCancelAtPoll(math.MaxInt64)
	alone := fresh()
	want, err := ask(probe, alone)
	if err != nil {
		t.Fatal(err)
	}
	if !builtOnce(alone) {
		t.Fatalf("the probe built %+v, not the hopset at %v alone", alone.PreprocessStats().Builds, key(alone))
	}
	full := probe.calls.Load()

	for round := 0; round < 4; round++ {
		eng := fresh()
		rng := rand.New(rand.NewSource(int64(round)))
		var wg sync.WaitGroup
		for r := 0; r < 6; r++ {
			qctx := context.Context(ctx)
			if r%2 == 1 {
				qctx = newCancelAtPoll(1 + rng.Int63n(full))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := ask(qctx, eng)
				switch {
				case err != nil && (qctx == ctx || !errors.Is(err, ErrCanceled)):
					t.Errorf("round %d: %v", round, err)
				case err == nil && !reflect.DeepEqual(got, want):
					t.Errorf("round %d: the answer differs from an engine's that built alone", round)
				}
			}()
		}
		wg.Wait()
		if !builtOnce(eng) {
			t.Errorf("round %d: builds %+v, want the hopset at %v once", round, eng.PreprocessStats().Builds, key(eng))
		}
	}
}
