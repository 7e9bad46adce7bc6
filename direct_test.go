package ccsp

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strconv"
	"testing"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/wire"
)

// The differential oracle suite: the simulated execution mode is the
// oracle, and every direct-mode artifact and query answer must be
// byte-identical to it - over graph families, every api.Request kind and
// APSP variant, and multiple kernel worker counts (DESIGN.md §12).

// diffFamilies are the graph families the oracle runs over.
func diffFamilies() []struct {
	name string
	gr   *Graph
} {
	clique := &Graph{g: graphgen.GNP(9, 1.0, graphgen.Weights{Max: 7}, 3)}
	grid := &Graph{g: graphgen.Grid(4, 5, graphgen.Weights{Max: 6}, 4)}
	path := &Graph{g: graphgen.Path(13, graphgen.Weights{Max: 9}, 5)}
	unweighted := &Graph{g: graphgen.Connected(16, 20, graphgen.Weights{Max: 1}, 6)}

	disconnected := NewGraph(14)
	for v := 1; v <= 5; v++ {
		disconnected.MustAddEdge(v, (v-1)/2, int64(v%3+1))
	}
	for v := 7; v <= 11; v++ {
		disconnected.MustAddEdge(v, 6+(v-7)/2, int64(v%4+1))
	}
	// Nodes 12 and 13 stay isolated.

	// Edges of weight 0, 1 and 2: a lighter node can sit more hops away
	// than a heavier one, which the k-nearest hop certificate must allow.
	zero := NewGraph(15)
	for v := 1; v < 15; v++ {
		zero.MustAddEdge(v, (5*v+3)%v, int64(v%3))
	}
	zero.MustAddEdge(3, 11, 0)
	zero.MustAddEdge(5, 14, 2)

	return []struct {
		name string
		gr   *Graph
	}{
		{"random-weighted", testGraph(18, 24, 8, 1)},
		{"path", path},
		{"grid", grid},
		{"clique", clique},
		{"disconnected", disconnected},
		{"unweighted", unweighted},
		{"zero-weight", zero},
	}
}

// diffWorkerCounts returns the direct-mode worker counts to exercise. The
// CI race matrix pins one count per job via CCSP_WORKERS; locally both the
// serial and the GOMAXPROCS pools run.
func diffWorkerCounts(t *testing.T) []int {
	if s := os.Getenv("CCSP_WORKERS"); s != "" {
		w, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CCSP_WORKERS %q: %v", s, err)
		}
		return []int{w}
	}
	return []int{1, 0}
}

// diffRequests covers every api.Request kind (and every APSP variant).
func diffRequests(n int) []api.Request {
	return []api.Request{
		{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 0}},
		{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: n - 1}},
		{Kind: api.KindMSSP, MSSP: &api.MSSPParams{Sources: []int{0, 1, n / 2}}},
		{Kind: api.KindAPSP, APSP: &api.APSPParams{Variant: api.APSPWeighted}},
		{Kind: api.KindAPSP, APSP: &api.APSPParams{Variant: api.APSPWeighted3}},
		{Kind: api.KindAPSP, APSP: &api.APSPParams{Variant: api.APSPUnweighted}},
		{Kind: api.KindAPSP},
		{Kind: api.KindDistance, Distance: &api.DistanceParams{From: 1, To: n - 1}},
		{Kind: api.KindDiameter},
		{Kind: api.KindKNearest, KNearest: &api.KNearestParams{K: 3}},
		{Kind: api.KindSourceDetection, SourceDetection: &api.SourceDetectionParams{Sources: []int{0, n / 3}, D: 4, K: 2}},
	}
}

// stripStats removes the cost report before comparison: Stats are the one
// intentional difference between the modes (rounds/messages vs
// wall-clock).
func stripStats(r *api.Response) *api.Response {
	r.Stats = nil
	return r
}

// assertSameArtifacts asserts that every artifact the simulated engine
// built has a byte-identical direct twin (same cache key, same encoded
// bytes, same degree vector). It first forces each of those keys on the
// direct engine, the base one with a Save: a host engine builds an entry
// only when a detection over its graph falls back (or, the base one, when
// Save needs it).
func assertSameArtifacts(t *testing.T, sim, dir *Engine) {
	t.Helper()
	if err := dir.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	sim.pre.mu.Lock()
	simArts := make(map[artifactKey]*artifactEntry, len(sim.pre.arts))
	for k, v := range sim.pre.arts {
		simArts[k] = v
	}
	sim.pre.mu.Unlock()
	for key := range simArts {
		if _, err := dir.artifact(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	dir.pre.mu.Lock()
	defer dir.pre.mu.Unlock()
	if len(simArts) == 0 {
		t.Fatal("simulated engine built no artifacts")
	}
	for key, simEnt := range simArts {
		dirEnt, ok := dir.pre.arts[key]
		if !ok {
			t.Errorf("direct engine missing artifact %v", key)
			continue
		}
		var simW, dirW wire.Writer
		hopset.EncodeArtifact(&simW, simEnt.art)
		hopset.EncodeArtifact(&dirW, dirEnt.art)
		simBytes, dirBytes := simW.Bytes(), dirW.Bytes()
		if !bytes.Equal(simBytes, dirBytes) {
			t.Errorf("artifact %v differs between modes (%d vs %d encoded bytes)", key, len(simBytes), len(dirBytes))
		}
		if !reflect.DeepEqual(simEnt.degs, dirEnt.degs) {
			t.Errorf("artifact %v degree vectors differ", key)
		}
	}
}

// assertCertifiedBuildsNothing asserts that a fresh host engine holds no
// artifact, and still holds none after an MSSP from sources whose every
// reached node keeps within β hops (certifies): the certified searches
// over G answer it without the base hopset.
func assertCertifiedBuildsNothing(t *testing.T, dir *Engine, sources []int) {
	t.Helper()
	if !certifies(dir.gr.g, dir.exec.base.beta, sources) {
		t.Fatalf("sources %v do not certify at β = %d", sources, dir.exec.base.beta)
	}
	if got := len(dir.PreprocessStats().Builds); got != 0 {
		t.Fatalf("a fresh host engine lists %d builds, want 0", got)
	}
	if _, err := dir.MSSP(context.Background(), sources); err != nil {
		t.Fatal(err)
	}
	if got := len(dir.PreprocessStats().Builds); got != 0 {
		t.Errorf("a certified MSSP left %d builds on a host engine, want 0", got)
	}
}

// TestDirectOracle is the cross-validation centerpiece: for each graph
// family, run every query kind in both modes and require byte-identical
// answers and byte-identical preprocessing artifacts.
func TestDirectOracle(t *testing.T) {
	ctx := context.Background()
	for _, fam := range diffFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			n := fam.gr.N()
			sim, err := NewEngine(ctx, fam.gr, Options{Epsilon: 0.5})
			if err != nil {
				t.Fatalf("simulated NewEngine: %v", err)
			}
			for _, workers := range diffWorkerCounts(t) {
				dir, err := NewEngine(ctx, fam.gr, Options{Epsilon: 0.5, Workers: workers, Execution: ExecDirect})
				if err != nil {
					t.Fatalf("direct NewEngine (workers=%d): %v", workers, err)
				}
				assertCertifiedBuildsNothing(t, dir, []int{0, n - 1})
				for _, req := range diffRequests(n) {
					simResp, simErr := sim.Query(ctx, req)
					dirResp, dirErr := dir.Query(ctx, req)
					if (simErr == nil) != (dirErr == nil) {
						t.Fatalf("%s workers=%d: error mismatch: simulated %v, direct %v", req.Kind, workers, simErr, dirErr)
					}
					if simErr != nil {
						continue
					}
					if !reflect.DeepEqual(stripStats(simResp), stripStats(dirResp)) {
						t.Errorf("%s workers=%d: answers differ\nsimulated: %+v\ndirect:    %+v", req.Kind, workers, simResp, dirResp)
					}
				}
				assertSameArtifacts(t, sim, dir)
			}
		})
	}
}

// TestDirectOracleEpsilons re-runs one family at other stretch settings:
// the equivalence must hold for every hopset parameterization, not just
// the default.
func TestDirectOracleEpsilons(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(15, 18, 6, 9)
	for _, eps := range []float64{0.25, 1.0} {
		opts := Options{Epsilon: eps}
		sim, err := NewEngine(ctx, gr, opts)
		if err != nil {
			t.Fatalf("simulated NewEngine (eps=%v): %v", eps, err)
		}
		opts.Execution = ExecDirect
		dir, err := NewEngine(ctx, gr, opts)
		if err != nil {
			t.Fatalf("direct NewEngine (eps=%v): %v", eps, err)
		}
		assertCertifiedBuildsNothing(t, dir, []int{0, gr.N() - 1})
		for _, req := range diffRequests(gr.N()) {
			simResp, err := sim.Query(ctx, req)
			if err != nil {
				t.Fatalf("simulated %s (eps=%v): %v", req.Kind, eps, err)
			}
			dirResp, err := dir.Query(ctx, req)
			if err != nil {
				t.Fatalf("direct %s (eps=%v): %v", req.Kind, eps, err)
			}
			if !reflect.DeepEqual(stripStats(simResp), stripStats(dirResp)) {
				t.Errorf("%s eps=%v: answers differ", req.Kind, eps)
			}
		}
		assertSameArtifacts(t, sim, dir)
	}
}

// TestDirectRepeatedQueries locks the per-artifact caching contract
// (DESIGN.md §13): repeated direct queries reuse the cached G ∪ H and
// routed matrices, and the second answer must be byte-identical to the
// first and to the simulated mode - the cache must be a pure memoization.
func TestDirectRepeatedQueries(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(18, 20, 7, 41)
	sim, err := NewEngine(ctx, gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := NewEngine(ctx, gr, Options{Epsilon: 0.5, Execution: ExecDirect})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range diffRequests(gr.N()) {
		simResp, simErr := sim.Query(ctx, req)
		first, firstErr := dir.Query(ctx, req)
		second, secondErr := dir.Query(ctx, req)
		if (simErr == nil) != (firstErr == nil) || (firstErr == nil) != (secondErr == nil) {
			t.Fatalf("%s: error mismatch: simulated %v, first %v, second %v", req.Kind, simErr, firstErr, secondErr)
		}
		if simErr != nil {
			continue
		}
		if !reflect.DeepEqual(stripStats(first), stripStats(second)) {
			t.Errorf("%s: repeated direct query differs from the first (cache not a pure memoization)", req.Kind)
		}
		if !reflect.DeepEqual(stripStats(simResp), stripStats(second)) {
			t.Errorf("%s: warm direct query differs from simulated", req.Kind)
		}
	}
}

// TestDirectPreprocessStats locks the satellite contract: a direct-mode
// engine lists no build after NewEngine and the base build after a Save,
// which reports zero rounds and messages but a real wall-clock cost, and
// tags its stats with the execution mode.
func TestDirectPreprocessStats(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(16, 20, 5, 11)
	eng, err := NewEngine(ctx, gr, Options{Epsilon: 0.5, Execution: ExecDirect})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if got := len(eng.PreprocessStats().Builds); got != 0 {
		t.Fatalf("a fresh host engine lists %d builds, want 0", got)
	}
	if err := eng.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	ps := eng.PreprocessStats()
	if len(ps.Builds) != 1 {
		t.Fatalf("got %d builds after Save, want 1", len(ps.Builds))
	}
	st := ps.Builds[0].Stats
	if st.Exec != ExecDirect {
		t.Errorf("build stats Exec = %v, want direct", st.Exec)
	}
	if st.TotalRounds != 0 || st.SimRounds != 0 || st.Messages != 0 || st.Words != 0 {
		t.Errorf("direct build reported nonzero communication: %+v", st)
	}
	if st.Wall() <= 0 {
		t.Errorf("direct build reported no wall-clock time: %+v", st)
	}
	if ps.Total.Exec != ExecDirect {
		t.Errorf("merged total Exec = %v, want direct", ps.Total.Exec)
	}
	res, err := eng.MSSP(ctx, []int{0, 3})
	if err != nil {
		t.Fatalf("MSSP: %v", err)
	}
	if res.Stats.Exec != ExecDirect || res.Stats.TotalRounds != 0 || res.Stats.Messages != 0 {
		t.Errorf("direct query stats = %+v, want zero rounds/messages and direct tag", res.Stats)
	}
}

// TestDirectLoadServesSimulatedSnapshot is the oracle of LoadEngineDirect,
// the path every ccspd -load takes: a snapshot built simulated, mutated to
// epoch 2 and holding all three artifact kinds (the unit weights make the
// auto APSP variant build the low-degree G′ one too) loads into a direct
// engine that keeps the epoch and the original PreprocessStats, answers
// every request kind with the wire bytes of a cold direct engine on the
// same graph, and rebuilds direct. A direct-built snapshot round-trips
// through it byte for byte.
func TestDirectLoadServesSimulatedSnapshot(t *testing.T) {
	ctx := context.Background()
	gr := unweightedTestGraph(20)
	for _, v := range []int{7, 9, 11, 13, 17} { // a hub of degree > ⌈√n⌉, so G′ ≠ G
		gr.MustAddEdge(0, v, 1)
	}
	for _, workers := range diffWorkerCounts(t) {
		sim, err := NewEngine(ctx, gr, Options{Epsilon: 0.5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		dyn := NewDynamicEngine(sim)
		for _, up := range []EdgeUpdate{{U: 2, V: 12, W: 1}, {U: 0, V: 5, W: -1}} {
			if _, err := dyn.Update(ctx, []EdgeUpdate{up}); err != nil {
				t.Fatal(err)
			}
		}
		sim = dyn.Engine()
		if _, err := sim.Query(ctx, api.Request{Kind: api.KindAPSP}); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := sim.Save(&snap); err != nil {
			t.Fatal(err)
		}
		dyn.Close()
		if b := sim.PreprocessStats().Builds; len(b) != 3 || b[2].Kind != artLowDegree.String() {
			t.Fatalf("workers=%d: snapshot builds %+v, want base, ε/2 and low-degree", workers, b)
		}

		loaded, err := LoadEngineDirect(ctx, bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		asBuilt, err := LoadEngine(ctx, bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Options().Execution; got != ExecDirect {
			t.Errorf("workers=%d: loaded execution = %v, want direct", workers, got)
		}
		if got := loaded.Epoch(); got != 2 {
			t.Errorf("workers=%d: loaded epoch = %d, want 2", workers, got)
		}
		ps := loaded.PreprocessStats()
		if !reflect.DeepEqual(ps, asBuilt.PreprocessStats()) {
			t.Errorf("workers=%d: PreprocessStats differ from LoadEngine's:\n got %+v\nwant %+v",
				workers, ps, asBuilt.PreprocessStats())
		}
		if ps.Total.TotalRounds == 0 {
			t.Errorf("workers=%d: PreprocessStats lost the simulated builds' rounds", workers)
		}

		cold, err := NewEngine(ctx, sim.Graph(), Options{Epsilon: 0.5, Workers: workers, Execution: ExecDirect})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range diffRequests(gr.N()) {
			got, gotErr := loaded.Query(ctx, req)
			want, wantErr := cold.Query(ctx, req)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d %s: error mismatch: loaded %v, cold %v", workers, req.Kind, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("workers=%d %s: loaded answer differs from a cold direct engine's\n got %s\nwant %s",
					workers, req.Kind, gotJSON, wantJSON)
			}
		}

		dynL := NewDynamicEngine(loaded)
		epoch, err := dynL.Update(ctx, []EdgeUpdate{{U: 3, V: 15, W: 1}})
		if err != nil {
			t.Fatal(err)
		}
		next := dynL.Engine()
		dynL.Close()
		if epoch != 3 || next.Epoch() != 3 || next.Options().Execution != ExecDirect {
			t.Errorf("workers=%d: rebuild published epoch %d (engine %d, %v), want 3 and direct",
				workers, epoch, next.Epoch(), next.Options().Execution)
		}

		// A direct-built snapshot: LoadEngineDirect → Save writes the input.
		var dsnap, resaved bytes.Buffer
		if err := cold.Save(&dsnap); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadEngineDirect(ctx, bytes.NewReader(dsnap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := reloaded.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dsnap.Bytes(), resaved.Bytes()) {
			t.Errorf("workers=%d: direct-built snapshot is not byte-identical through LoadEngineDirect → Save", workers)
		}
	}
}
