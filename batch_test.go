package ccsp

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/congestedclique/ccsp/api"
)

// TestBatchAmortizesPreprocessing is the E14 accounting regression at the
// Batch API: a batch of q=8 distinct MSSP requests charges the hopset
// phases exactly once (in PreprocessStats, not in any query), and the
// engine total equals one one-shot's hopset cost.
func TestBatchAmortizesPreprocessing(t *testing.T) {
	gr := testGraph(24, 30, 8, 77)
	opts := Options{Epsilon: 0.5}

	oneShotRef, err := MSSP(context.Background(), gr, []int{0, 8}, opts)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]api.Request, 0, 8)
	for i := 0; i < 8; i++ {
		reqs = append(reqs, api.Request{Kind: api.KindMSSP, MSSP: &api.MSSPParams{Sources: []int{i, i + 8}}})
	}
	resps, err := eng.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
	}
	querySum := Stats{}
	for i, resp := range resps {
		if resp.Error != nil {
			t.Fatalf("request %d failed: %v", i, resp.Error)
		}
		if resp.MSSP == nil || resp.Stats == nil {
			t.Fatalf("request %d: malformed response %+v", i, resp)
		}
		querySum = querySum.Merge(Stats{TotalRounds: resp.Stats.TotalRounds, SimRounds: resp.Stats.SimRounds,
			Messages: resp.Stats.Messages, Words: resp.Stats.Words})
		// Every response matches the direct engine call.
		direct, err := eng.MSSP(context.Background(), reqs[i].MSSP.Sources)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual([][]int64(resp.MSSP.Dist), wireMat(direct.Dist)) {
			t.Errorf("request %d: batch answer differs from direct call", i)
		}
	}

	// The hopset was charged once: exactly one preprocessing build, whose
	// hopset-phase rounds equal the one-shot's (the E14 bookkeeping).
	ps := eng.PreprocessStats()
	if len(ps.Builds) != 1 {
		t.Fatalf("batch of 8 MSSP requests ran %d preprocessing builds, want 1", len(ps.Builds))
	}
	all := ps.Total.Merge(querySum)
	for phase, rounds := range oneShotRef.Stats.PhaseRounds {
		if strings.HasPrefix(phase, "hopset/") && all.PhaseRounds[phase] != rounds {
			t.Errorf("phase %q: batch total %d rounds, one-shot charges %d once",
				phase, all.PhaseRounds[phase], rounds)
		}
	}
}

// TestBatchLazyArtifactBuildsOnce: a batch whose requests all need the
// lazily built ε/2 APSP artifact coalesces on one in-flight build even
// though the requests run concurrently.
func TestBatchLazyArtifactBuildsOnce(t *testing.T) {
	gr := testGraph(16, 20, 6, 9)
	eng, err := NewEngine(context.Background(), gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []api.Request{
		{Kind: api.KindAPSP},
		{Kind: api.KindAPSP, APSP: &api.APSPParams{Variant: api.APSPWeighted}},
		{Kind: api.KindAPSP, APSP: &api.APSPParams{Variant: api.APSPWeighted3}},
	}
	resps, err := eng.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Error != nil {
			t.Fatalf("request %d: %v", i, resp.Error)
		}
	}
	// auto resolved to weighted: requests 0 and 1 shared one run.
	if resps[0].APSP.Variant != api.APSPWeighted {
		t.Errorf("auto resolved to %q", resps[0].APSP.Variant)
	}
	if !reflect.DeepEqual(resps[0].APSP.Dist, resps[1].APSP.Dist) || *resps[0].Stats != *resps[1].Stats {
		t.Error("auto and explicit weighted requests did not share a run")
	}
	// Base artifact (eager) + one lazy ε/2 artifact, despite two distinct
	// APSP queries wanting it concurrently.
	if ps := eng.PreprocessStats(); len(ps.Builds) != 2 {
		t.Fatalf("%d preprocessing builds, want 2 (base + shared ε/2)", len(ps.Builds))
	}
}

// TestBatchIsolatesErrors: invalid requests fail alone, with typed wire
// codes, while the rest of the batch answers - and a batch never returns
// a top-level error for per-request failures.
func TestBatchIsolatesErrors(t *testing.T) {
	gr := testGraph(12, 10, 5, 11)
	eng, err := NewEngine(context.Background(), gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []api.Request{
		{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 2}},   // ok
		{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 500}}, // out of range
		{Kind: api.KindMSSP}, // malformed union
		{Kind: api.KindKNearest, KNearest: &api.KNearestParams{K: -2}}, // bad option
		{Kind: api.KindDiameter},                               // ok
		{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 2}}, // duplicate of 0
	}
	resps, err := eng.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch error %v; per-request failures must not fail the batch", err)
	}
	if resps[0].Error != nil || resps[0].SSSP == nil {
		t.Errorf("request 0 should succeed: %+v", resps[0].Error)
	}
	if resps[1].Error == nil || resps[1].Error.Code != api.CodeInvalidSource {
		t.Errorf("request 1: error %+v, want invalid_source", resps[1].Error)
	}
	if resps[2].Error == nil || resps[2].Error.Code != api.CodeMalformed {
		t.Errorf("request 2: error %+v, want malformed", resps[2].Error)
	}
	if resps[3].Error == nil || resps[3].Error.Code != api.CodeInvalidOption {
		t.Errorf("request 3: error %+v, want invalid_option", resps[3].Error)
	}
	if resps[4].Error != nil || resps[4].Diameter == nil {
		t.Errorf("request 4 should succeed: %+v", resps[4].Error)
	}
	// Duplicates share the same answer.
	if !reflect.DeepEqual(resps[5].SSSP, resps[0].SSSP) {
		t.Error("duplicate request did not share the response")
	}
	// Failed requests echo their kind for positional dispatch.
	if resps[1].Kind != api.KindSSSP || resps[2].Kind != api.KindMSSP {
		t.Error("error responses lost their request kind")
	}
}

// TestBatchCanceledContext: a context dead on entry is the one condition
// that fails the whole batch, with the usual typed sentinel.
func TestBatchCanceledContext(t *testing.T) {
	gr := testGraph(10, 8, 5, 13)
	eng, err := NewEngine(context.Background(), gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Batch(ctx, []api.Request{{Kind: api.KindDiameter}}); err == nil {
		t.Fatal("batch with dead context succeeded")
	} else if got := APIError(err); got.Code != api.CodeCanceled {
		t.Errorf("dead-context batch error code %q, want canceled", got.Code)
	}
}

// TestBatchCoalescesDistanceOntoMSSP: two distance requests from one
// source and that source's plain MSSP are one plan key, so an in-process
// batch of the three costs one engine run - what the daemon's batch
// endpoint always did - and each position still gets its own answer.
func TestBatchCoalescesDistanceOntoMSSP(t *testing.T) {
	gr := testGraph(20, 25, 8, 3)
	ctx := context.Background()
	eng, err := NewEngine(ctx, gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []api.Request{api.Distance(2, 9), api.Distance(2, 5), api.MSSP(2)}
	want := make([]api.Response, len(reqs))
	for i, req := range reqs {
		resp, err := eng.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *resp
	}

	runs := metQueries
	before := runs.Value()
	got, err := eng.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Value() - before; n != 1 {
		t.Errorf("batch cost %d engine runs, want 1", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("coalesced batch differs from separate queries\n got %+v\nwant %+v", got, want)
	}
}

// BenchmarkEngineBatch measures Engine.Batch of q distinct MSSP requests,
// each its own run, in both execution modes: q = 1 is a batch whose other
// positions coalesced or hit a cache, q = 8 fills RunPlans' worker group.
// The engine is preprocessed once per mode, so the loop is the batch alone.
func BenchmarkEngineBatch(b *testing.B) {
	for _, mode := range []struct {
		x Execution
		n int
	}{{ExecDirect, 1024}, {ExecSimulated, 48}} {
		var eng *Engine
		for _, q := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/n=%d/q=%d", mode.x, mode.n, q), func(b *testing.B) {
				if eng == nil {
					var err error
					eng, err = NewEngine(context.Background(), testGraph(mode.n, 3*mode.n, 10, 17), Options{Epsilon: 0.5, Execution: mode.x})
					if err != nil {
						b.Fatal(err)
					}
				}
				reqs := make([]api.Request, q)
				for i := range reqs {
					reqs[i] = api.Request{Kind: api.KindMSSP, MSSP: &api.MSSPParams{Sources: []int{i, i + q}}}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Batch(context.Background(), reqs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
