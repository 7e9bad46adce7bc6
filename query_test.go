package ccsp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"github.com/congestedclique/ccsp/api"
)

// TestQueryMatchesEngineMethods: every api.Request kind dispatched through
// Engine.Query returns the same answer (modulo the -1 wire convention for
// unreachable) and the same deterministic stats as the direct Engine call.
func TestQueryMatchesEngineMethods(t *testing.T) {
	gr := testGraph(20, 25, 8, 3)
	eng, err := NewEngine(context.Background(), gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	checkStats := func(kind api.Kind, got *api.Stats, want Stats) {
		t.Helper()
		if got == nil {
			t.Fatalf("%s: response without stats", kind)
		}
		if w := wireStats(want); *got != w {
			t.Errorf("%s: stats %+v, want %+v", kind, *got, w)
		}
	}

	// SSSP.
	wantS, err := eng.SSSP(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eng.Query(ctx, api.SSSP(3))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Kind != api.KindSSSP || rs.SSSP == nil {
		t.Fatalf("sssp response shape: %+v", rs)
	}
	if !reflect.DeepEqual(rs.SSSP.Dist, wireVec(wantS.Dist)) || rs.SSSP.Iterations != wantS.Iterations {
		t.Error("sssp payload differs from direct call")
	}
	checkStats(api.KindSSSP, rs.Stats, wantS.Stats)

	// MSSP normalizes sources the same way the engine does.
	wantM, err := eng.MSSP(ctx, []int{7, 2})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := eng.Query(ctx, api.MSSP(2, 7, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rm.MSSP.Sources, wantM.Sources) || !reflect.DeepEqual([][]int64(rm.MSSP.Dist), wireMat(wantM.Dist)) {
		t.Error("mssp payload differs from direct call")
	}
	checkStats(api.KindMSSP, rm.Stats, wantM.Stats)

	// APSP auto resolves to weighted on this graph and reports it.
	wantA, err := eng.APSPWeighted(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := eng.Query(ctx, api.APSP(api.APSPAuto))
	if err != nil {
		t.Fatal(err)
	}
	if ra.APSP.Variant != api.APSPWeighted {
		t.Errorf("auto variant resolved to %q, want weighted", ra.APSP.Variant)
	}
	if !reflect.DeepEqual([][]int64(ra.APSP.Dist), wireMat(wantA.Dist)) {
		t.Error("apsp payload differs from direct call")
	}
	checkStats(api.KindAPSP, ra.Stats, wantA.Stats)

	// The explicit weighted3 variant runs §6.1.
	wantA3, err := eng.APSPWeighted3(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ra3, err := eng.Query(ctx, api.APSP(api.APSPWeighted3))
	if err != nil {
		t.Fatal(err)
	}
	if ra3.APSP.Variant != api.APSPWeighted3 || !reflect.DeepEqual([][]int64(ra3.APSP.Dist), wireMat(wantA3.Dist)) {
		t.Error("apsp weighted3 payload differs from direct call")
	}

	// Distance projects the single-source MSSP row.
	rd, err := eng.Query(ctx, api.Distance(2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if want := rm.MSSP.Dist[9][0]; rd.Distance.Distance != want || rd.Distance.Reachable != (want != api.Unreachable) {
		t.Errorf("distance(2,9) = %+v, want %d", rd.Distance, want)
	}

	// Diameter.
	wantD, err := eng.Diameter(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := eng.Query(ctx, api.Diameter())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Diameter.Estimate != wantD.Estimate {
		t.Errorf("diameter %d, want %d", rr.Diameter.Estimate, wantD.Estimate)
	}
	checkStats(api.KindDiameter, rr.Stats, wantD.Stats)

	// KNearest.
	wantK, err := eng.KNearest(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := eng.Query(ctx, api.KNearest(3))
	if err != nil {
		t.Fatal(err)
	}
	if rk.KNearest.K != 3 || !reflect.DeepEqual([][]Neighbor(rk.KNearest.Neighbors), wantK.Neighbors) {
		t.Error("knearest payload differs from direct call")
	}

	// SourceDetection.
	wantSD, err := eng.SourceDetection(ctx, []int{0, 5}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rsd, err := eng.Query(ctx, api.SourceDetection([]int{0, 5}, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rsd.SourceDetection.D != 3 || rsd.SourceDetection.K != 2 ||
		!reflect.DeepEqual([][]Neighbor(rsd.SourceDetection.Detected), wantSD.Detected) {
		t.Error("source-detection payload differs from direct call")
	}
}

// TestQueryTypedErrors: Query preserves the errors.Is taxonomy of the
// direct methods, and structural violations are api.ErrMalformed.
func TestQueryTypedErrors(t *testing.T) {
	gr := testGraph(10, 8, 5, 4)
	eng, err := NewEngine(context.Background(), gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for name, tc := range map[string]struct {
		req  api.Request
		want error
	}{
		"malformed-union":  {api.Request{Kind: api.KindSSSP}, api.ErrMalformed},
		"unknown-kind":     {api.Request{Kind: "bfs"}, api.ErrMalformed},
		"bad-source":       {api.SSSP(99), ErrInvalidSource},
		"bad-mssp-source":  {api.MSSP(-1), ErrInvalidSource},
		"bad-distance-to":  {api.Distance(0, 88), ErrInvalidSource},
		"bad-knearest-k":   {api.KNearest(0), ErrInvalidOption},
		"bad-sourcedet-d":  {api.SourceDetection([]int{0}, 0, 1), ErrInvalidOption},
		"empty-source-set": {api.MSSP(), ErrInvalidSource},
	} {
		_, err := eng.Query(ctx, tc.req)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}

	// A dead context is ErrCanceled, like every entry point.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Query(canceled, api.Diameter()); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// TestAPIErrorCodes pins the error → wire-code table both ways the server
// and client rely on.
func TestAPIErrorCodes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		err  error
		want api.ErrorCode
	}{
		"canceled":    {wrapRun("q", ctxWrap(context.Canceled)), api.CodeCanceled},
		"deadline":    {ctxWrap(context.DeadlineExceeded), api.CodeDeadline},
		"round-limit": {wrapRun("q", ErrRoundLimit), api.CodeRoundLimit},
		"source":      {ctxErrForTest(ErrInvalidSource), api.CodeInvalidSource},
		"option":      {ctxErrForTest(ErrInvalidOption), api.CodeInvalidOption},
		"malformed":   {ctxErrForTest(api.ErrMalformed), api.CodeMalformed},
		"unavailable": {ctxErrForTest(ErrUnavailable), api.CodeUnavailable},
		"overloaded":  {ctxErrForTest(ErrOverloaded), api.CodeOverloaded},
		"plain":       {errors.New("boom"), api.CodeInternal},
	} {
		if got := APIError(tc.err); got.Code != tc.want {
			t.Errorf("%s: code %q, want %q", name, got.Code, tc.want)
		}
	}
	if APIError(nil) != nil {
		t.Error("APIError(nil) != nil")
	}
	_ = ctx
}

func ctxWrap(sentinel error) error {
	return &wrapErr{msg: "ccsp: q: canceled", inner: []error{ErrCanceled, sentinel}}
}

func ctxErrForTest(sentinel error) error {
	return &wrapErr{msg: "wrapped", inner: []error{sentinel}}
}

// wrapErr is a minimal multi-target wrapper for table tests.
type wrapErr struct {
	msg   string
	inner []error
}

func (w *wrapErr) Error() string { return w.msg }
func (w *wrapErr) Unwrap() []error {
	return w.inner
}

// TestAnswerMatchesRunFinish: Plan.Answer is Finish(Run, false) byte for
// byte - every request kind on every graph family of the differential
// oracle plus the two-component splitGraph, in both execution modes and at
// both worker counts, a distance from a node to itself and one across
// components included - and when the run fails (a source out of range, a
// dead context) it fails with the same wire code and message. The answer is
// read before its release and released before the next request is
// answered, so the mssp plane, apsp table and knearest or source-detection
// neighbor backing one lends are the ones the next takes from the pool (the
// k-nearest slabs go back inside the engine, before the answer is shaped);
// asked twice, every answer reads the same.
func TestAnswerMatchesRunFinish(t *testing.T) {
	families := append(diffFamilies(), struct {
		name string
		gr   *Graph
	}{"split", splitGraph()})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			n := fam.gr.N()
			reqs := append(diffRequests(n), api.Distance(0, 0), api.Distance(n-1, n-1), api.Distance(n-1, 0), api.Distance(0, n/2+1), api.KNearest(n/2+1))
			opts := []Options{{Epsilon: 0.5}}
			for _, w := range diffWorkerCounts(t) {
				opts = append(opts, Options{Epsilon: 0.5, Execution: ExecDirect, Workers: w})
			}
			for _, o := range opts {
				eng, err := NewEngine(ctx, fam.gr, o)
				if err != nil {
					t.Fatal(err)
				}
				for _, req := range reqs {
					p, err := eng.Plan(req)
					if err != nil {
						t.Fatal(err)
					}
					run, err := p.Run(ctx)
					if err != nil {
						t.Fatalf("%s %+v: %v", o.Execution, req, err)
					}
					want, err := json.Marshal(p.Finish(*run, false))
					if err != nil {
						t.Fatal(err)
					}
					for again := 0; again < 2; again++ {
						answer, release, err := p.Answer(ctx)
						if err != nil {
							t.Fatalf("%s %+v: Answer: %v", o.Execution, req, err)
						}
						got, err := json.Marshal(answer)
						if err != nil {
							t.Fatal(err)
						}
						if fam.name == "split" && req.Kind == api.KindDistance && (req.Distance.From < 4) != (req.Distance.To < 4) {
							if d := answer.Distance; d.Reachable || d.Distance != api.Unreachable {
								t.Errorf("%s %+v across the halves: %+v, want -1 and not reachable", o.Execution, req, d)
							}
						}
						release()
						if !bytes.Equal(got, want) {
							t.Errorf("%s workers=%d %+v, answer %d:\nAnswer          %s\nFinish(Run) %s", o.Execution, o.Workers, req, again, got, want)
						}
					}
				}
				for _, bad := range []struct {
					ctx context.Context
					req api.Request
				}{{ctx, api.Distance(n+3, 0)}, {ctx, api.Distance(-1, 0)}, {canceled, api.Distance(1, 0)}, {canceled, api.MSSP(1)}} {
					p, err := eng.Plan(bad.req)
					if err != nil {
						t.Fatal(err)
					}
					_, runErr := p.Run(bad.ctx)
					_, release, ansErr := p.Answer(bad.ctx)
					if runErr == nil || release != nil || !reflect.DeepEqual(APIError(ansErr), APIError(runErr)) {
						t.Errorf("%s %+v: Answer fails with %v, Run with %v", o.Execution, bad.req, APIError(ansErr), APIError(runErr))
					}
				}
			}
		})
	}
}

// TestPlanIdempotent: a plan's own request is already canonical - planning
// it again rewrites nothing and keys identically - for every kind, in both
// execution modes, on a fresh engine and on a later graph generation.
func TestPlanIdempotent(t *testing.T) {
	gr := testGraph(12, 14, 6, 5)
	reqs := map[string]api.Request{
		"sssp":             api.SSSP(3),
		"mssp":             api.MSSP(7, 2, 7),
		"apsp-auto":        api.APSP(api.APSPAuto),
		"apsp-weighted3":   api.APSP(api.APSPWeighted3),
		"distance":         api.Distance(2, 9).On("roads"),
		"diameter":         api.Diameter(),
		"knearest":         api.KNearest(3),
		"source-detection": api.SourceDetection([]int{0, 5}, 3, 2),
	}
	for _, exec := range []Execution{ExecSimulated, ExecDirect} {
		eng, err := NewEngine(context.Background(), gr, Options{Execution: exec})
		if err != nil {
			t.Fatal(err)
		}
		for _, epoch := range []uint64{0, 7} {
			eng.epoch = epoch
			for name, req := range reqs {
				p, err := eng.Plan(req)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				again, err := eng.Plan(p.Request())
				if err != nil {
					t.Fatalf("%s: planning the plan's own request: %v", name, err)
				}
				if !reflect.DeepEqual(again.Request(), p.Request()) {
					t.Errorf("%s/%s/e%d: second planning rewrote %+v to %+v", name, exec, epoch, p.Request(), again.Request())
				}
				if again.Key() != p.Key() || p.Key() != p.Request().CacheKeyAt(epoch) {
					t.Errorf("%s/%s/e%d: keys %q, %q, want %q", name, exec, epoch, p.Key(), again.Key(), p.Request().CacheKeyAt(epoch))
				}
			}
		}
	}
}
