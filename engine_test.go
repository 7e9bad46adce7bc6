package ccsp

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/congestedclique/ccsp/api"
)

// statsEqual compares the deterministic fields of two Stats (wall-clock
// CollectiveTime is observational and excluded).
func statsEqual(t *testing.T, label string, got, want Stats) {
	t.Helper()
	got.CollectiveTime, want.CollectiveTime = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: stats differ:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestEngineMatchesOneShot is the determinism contract of the Engine: for
// MSSP, APSP and Diameter, query results are byte-identical to the
// one-shot functions and preprocessing + query rounds equal the one-shot
// rounds exactly; and q=8 MSSP queries through one Engine charge the
// hopset-construction phases exactly once.
func TestEngineMatchesOneShot(t *testing.T) {
	gr := testGraph(24, 30, 8, 77)
	opts := Options{Epsilon: 0.5}
	sources := []int{2, 7, 13}

	oneM, err := MSSP(context.Background(), gr, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	oneA, err := APSPWeighted(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	oneD, err := Diameter(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The typed-request one-shot answers and accounts exactly as the typed
	// functions do: same wire payload, same preprocess-folded counters
	// (and, for sssp, no hopset built at all).
	oneS, err := SSSP(context.Background(), gr, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		req   api.Request
		stats Stats
		want  interface{}
		got   func(*api.Response) interface{}
	}{
		{api.MSSP(sources...), oneM.Stats, api.Matrix(oneM.Dist), func(r *api.Response) interface{} { return r.MSSP.Dist }},
		{api.APSP(api.APSPAuto), oneA.Stats, api.Matrix(oneA.Dist), func(r *api.Response) interface{} { return r.APSP.Dist }},
		{api.Diameter(), oneD.Stats, oneD.Estimate, func(r *api.Response) interface{} { return r.Diameter.Estimate }},
		{api.SSSP(3), oneS.Stats, oneS.Dist, func(r *api.Response) interface{} { return r.SSSP.Dist }},
	} {
		resp, err := Query(context.Background(), gr, c.req, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.got(resp); !reflect.DeepEqual(got, c.want) {
			t.Errorf("one-shot Query %s payload differs from the typed one-shot", c.req.Kind)
		}
		if *resp.Stats != wireStats(c.stats) {
			t.Errorf("one-shot Query %s stats %+v, want %+v", c.req.Kind, *resp.Stats, wireStats(c.stats))
		}
	}

	eng, err := NewEngine(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := eng.PreprocessStats()
	if len(base.Builds) != 1 {
		t.Fatalf("NewEngine ran %d preprocessing builds, want 1", len(base.Builds))
	}
	if b := base.Builds[0]; b.Kind != "hopset" || b.Eps != 0.5 || b.Beta <= 0 || b.Edges <= 0 {
		t.Errorf("base build metadata wrong: %+v", b)
	}

	// MSSP: same distances, and base preprocess + query = one-shot.
	qm, err := eng.MSSP(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qm.Dist, oneM.Dist) || !reflect.DeepEqual(qm.Sources, oneM.Sources) {
		t.Error("engine MSSP distances differ from one-shot")
	}
	statsEqual(t, "MSSP", base.Total.Merge(qm.Stats), oneM.Stats)

	// Diameter reuses the same base artifact: still one build.
	qd, err := eng.Diameter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if qd.Estimate != oneD.Estimate {
		t.Errorf("engine diameter %d, one-shot %d", qd.Estimate, oneD.Estimate)
	}
	statsEqual(t, "Diameter", base.Total.Merge(qd.Stats), oneD.Stats)
	if ps := eng.PreprocessStats(); len(ps.Builds) != 1 {
		t.Errorf("MSSP+Diameter triggered %d builds, want the shared 1", len(ps.Builds))
	}

	// APSP needs the ε/2 artifact, built lazily as a second preprocessing
	// run; that run + the query must equal the one-shot APSP exactly.
	qa, err := eng.APSPWeighted(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qa.Dist, oneA.Dist) {
		t.Error("engine APSP distances differ from one-shot")
	}
	ps := eng.PreprocessStats()
	if len(ps.Builds) != 2 {
		t.Fatalf("after APSP: %d builds, want 2", len(ps.Builds))
	}
	statsEqual(t, "APSPWeighted", ps.Builds[1].Stats.Merge(qa.Stats), oneA.Stats)

	// q=8 MSSP queries: hopset phases are charged exactly once, in the
	// preprocessing; no query run contains any hopset construction.
	eng2, err := NewEngine(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	querySum := Stats{}
	for i := 0; i < 8; i++ {
		r, err := eng2.MSSP(context.Background(), []int{i, i + 8})
		if err != nil {
			t.Fatal(err)
		}
		for phase := range r.Stats.PhaseRounds {
			if strings.HasPrefix(phase, "hopset/") {
				t.Fatalf("query %d charged hopset phase %q", i, phase)
			}
		}
		querySum = querySum.Merge(r.Stats)
	}
	ps2 := eng2.PreprocessStats()
	if len(ps2.Builds) != 1 {
		t.Fatalf("8 MSSP queries triggered %d builds, want 1", len(ps2.Builds))
	}
	// The engine's total hopset-phase rounds equal one one-shot MSSP's
	// hopset-phase rounds: the construction was paid exactly once.
	all := ps2.Total.Merge(querySum)
	for phase, rounds := range oneM.Stats.PhaseRounds {
		if strings.HasPrefix(phase, "hopset/") && all.PhaseRounds[phase] != rounds {
			t.Errorf("phase %q: engine total %d rounds over 8 queries, one-shot charges %d once",
				phase, all.PhaseRounds[phase], rounds)
		}
	}
}

// TestEngineMatchesOneShotUnweighted covers the two-artifact path of the
// unweighted APSP (hopsets on G and on the low-degree subgraph G').
func TestEngineMatchesOneShotUnweighted(t *testing.T) {
	gr := NewGraph(20)
	gr.MustAddEdge(0, 1, 1)
	for v := 2; v < 20; v++ {
		gr.MustAddEdge(v, (v*3+1)%v, 1)
		if u := (v * 7) % 20; u != v {
			gr.MustAddEdge(v, u, 1)
		}
	}
	if !gr.Unweighted() {
		t.Fatal("test graph must be unweighted")
	}
	opts := Options{Epsilon: 0.5}
	one, err := APSPUnweighted(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(gr, opts) // lazy: no base artifact
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.APSP(context.Background()) // unweighted input dispatches to APSPUnweighted
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Dist, one.Dist) {
		t.Error("engine unweighted APSP distances differ from one-shot")
	}
	ps := eng.PreprocessStats()
	if len(ps.Builds) != 2 {
		t.Fatalf("unweighted APSP used %d builds, want 2 (G and G')", len(ps.Builds))
	}
	kinds := []string{ps.Builds[0].Kind, ps.Builds[1].Kind}
	if !reflect.DeepEqual(kinds, []string{"hopset", "hopset-lowdeg"}) {
		t.Errorf("build kinds %v, want [hopset hopset-lowdeg]", kinds)
	}
	statsEqual(t, "APSPUnweighted", ps.Total.Merge(q.Stats), one.Stats)

	// A second query reuses both artifacts.
	q2, err := eng.APSPUnweighted(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q2.Dist, one.Dist) {
		t.Error("second engine query differs")
	}
	if len(eng.PreprocessStats().Builds) != 2 {
		t.Error("second query triggered extra preprocessing")
	}
}

// TestEngineQueryOnlyMethods: SSSP, KNearest and SourceDetection need no
// artifacts and must match their one-shot twins without preprocessing.
func TestEngineQueryOnlyMethods(t *testing.T) {
	gr := testGraph(18, 20, 6, 99)
	opts := Options{}
	eng, err := newEngine(gr, opts)
	if err != nil {
		t.Fatal(err)
	}

	oneS, err := SSSP(context.Background(), gr, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := eng.SSSP(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qs.Dist, oneS.Dist) || qs.Iterations != oneS.Iterations {
		t.Error("engine SSSP differs from one-shot")
	}
	statsEqual(t, "SSSP", qs.Stats, oneS.Stats)

	oneK, err := KNearest(context.Background(), gr, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	qk, err := eng.KNearest(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qk.Neighbors, oneK.Neighbors) {
		t.Error("engine KNearest differs from one-shot")
	}

	oneSD, err := SourceDetection(context.Background(), gr, []int{0, 5}, 3, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	qsd, err := eng.SourceDetection(context.Background(), []int{0, 5}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qsd.Detected, oneSD.Detected) {
		t.Error("engine SourceDetection differs from one-shot")
	}

	if builds := eng.PreprocessStats().Builds; len(builds) != 0 {
		t.Errorf("query-only methods ran %d preprocessing builds, want 0", len(builds))
	}
}

// TestEngineConcurrentQueries: one Engine, many goroutines. The cached
// artifact is read-only and each query runs in its own simulator, so
// concurrent queries must return exactly the sequential results. Run
// under -race in CI.
func TestEngineConcurrentQueries(t *testing.T) {
	gr := testGraph(20, 24, 7, 123)
	eng, err := NewEngine(context.Background(), gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	srcSets := [][]int{{0, 5}, {1, 9, 17}, {3}, {2, 4, 6, 8}}
	want := make([]*MSSPResult, len(srcSets))
	for i, s := range srcSets {
		if want[i], err = eng.MSSP(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	wantD, err := eng.Diameter(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(srcSets)
			res, err := eng.MSSP(context.Background(), srcSets[i])
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Dist, want[i].Dist) {
				errs <- fmt.Errorf("goroutine %d: MSSP(context.Background(), %v) differs from sequential", g, srcSets[i])
			}
			if g%4 == 0 {
				d, err := eng.Diameter(context.Background())
				if err != nil {
					errs <- err
					return
				}
				if d.Estimate != wantD.Estimate {
					errs <- fmt.Errorf("goroutine %d: diameter %d != %d", g, d.Estimate, wantD.Estimate)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ps := eng.PreprocessStats(); len(ps.Builds) != 1 {
		t.Errorf("concurrent queries triggered %d builds, want 1", len(ps.Builds))
	}
}

// TestEngineLazyAPSPBuildsConcurrently: concurrent first APSP queries
// must serialize on a single ε/2 artifact build.
func TestEngineLazyAPSPBuildsConcurrently(t *testing.T) {
	gr := testGraph(16, 18, 5, 321)
	eng, err := newEngine(gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*APSPResult, 4)
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = eng.APSPWeighted(context.Background())
		}()
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(results[g].Dist, results[0].Dist) {
			t.Errorf("goroutine %d: distances differ", g)
		}
	}
	if ps := eng.PreprocessStats(); len(ps.Builds) != 1 {
		t.Errorf("4 concurrent APSP queries ran %d builds, want 1", len(ps.Builds))
	}
}

// TestEngineValidation: argument errors surface before any simulation.
func TestEngineValidation(t *testing.T) {
	var nilGraph *Graph
	if _, err := NewEngine(context.Background(), nilGraph, Options{}); err == nil {
		t.Error("want nil-graph error")
	}
	if _, err := NewEngine(context.Background(), testGraph(8, 4, 3, 1), Options{Epsilon: 2}); err == nil {
		t.Error("want epsilon validation error")
	}
	eng, err := newEngine(testGraph(8, 4, 3, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MSSP(context.Background(), nil); err == nil {
		t.Error("want no-sources error")
	}
	if _, err := eng.MSSP(context.Background(), []int{99}); err == nil {
		t.Error("want source-range error")
	}
	if _, err := eng.SSSP(context.Background(), -1); err == nil {
		t.Error("want source-range error")
	}
	if _, err := eng.KNearest(context.Background(), 0); err == nil {
		t.Error("want k validation error")
	}
	if _, err := eng.SourceDetection(context.Background(), []int{0}, 0, 1); err == nil {
		t.Error("want d validation error")
	}
	if _, err := eng.SourceDetection(context.Background(), []int{-4}, 1, 1); err == nil {
		t.Error("want source-range error")
	}
	if builds := eng.PreprocessStats().Builds; len(builds) != 0 {
		t.Errorf("failed validations ran %d builds, want 0", len(builds))
	}
	if eng.Graph() == nil || eng.Options().Epsilon != 0.5 {
		t.Error("accessors wrong")
	}
}

// TestNewEngineRejectsOverflowingWeight: an edge too heavy for the
// semiring's int64 rank is a validation error up front, not a panic inside
// the preprocessing run.
func TestNewEngineRejectsOverflowingWeight(t *testing.T) {
	gr := NewGraph(4)
	gr.MustAddEdge(0, 1, 1<<62)
	if _, err := NewEngine(context.Background(), gr, Options{}); err == nil {
		t.Fatal("NewEngine accepted a weight that overflows the semiring")
	}
}
