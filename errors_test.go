package ccsp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/cc"
)

// TestErrorTableParity walks every api.ErrorCode through the one table
// of errors.go in all three directions: a wrapped sentinel becomes its
// wire code (APIError) and its HTTP status (HTTPStatus - the table in
// internal/server's package comment), and the wire error comes back
// (SentinelError) as something errors.Is-equal to where it started and
// classified exactly the same.
func TestErrorTableParity(t *testing.T) {
	cases := []struct {
		code   api.ErrorCode
		chain  []error // what the error wraps, outermost first
		status int
	}{
		{api.CodeDeadline, []error{ErrCanceled, context.DeadlineExceeded}, http.StatusGatewayTimeout},
		{api.CodeCanceled, []error{ErrCanceled, context.Canceled}, 499},
		{api.CodeRoundLimit, []error{ErrRoundLimit}, http.StatusServiceUnavailable},
		{api.CodeInvalidSource, []error{ErrInvalidSource}, http.StatusUnprocessableEntity},
		{api.CodeInvalidOption, []error{ErrInvalidOption}, http.StatusUnprocessableEntity},
		{api.CodeMalformed, []error{api.ErrMalformed}, http.StatusBadRequest},
		{api.CodeUnknownGraph, []error{ErrUnknownGraph}, http.StatusNotFound},
		{api.CodeUnavailable, []error{ErrUnavailable}, http.StatusServiceUnavailable},
		{api.CodeOverloaded, []error{ErrOverloaded}, http.StatusServiceUnavailable},
		{api.CodeInternal, nil, http.StatusBadRequest},
	}
	covered := map[api.ErrorCode]bool{}
	for _, tc := range cases {
		covered[tc.code] = true
		err := &wrapErr{msg: "op failed", inner: tc.chain}
		wire := APIError(err)
		if wire.Code != tc.code || wire.Message != "op failed" {
			t.Errorf("%s: APIError = %+v", tc.code, wire)
		}
		if got := HTTPStatus(err); got != tc.status {
			t.Errorf("%s: HTTPStatus = %d, want %d", tc.code, got, tc.status)
		}
		back := SentinelError(wire)
		for _, want := range tc.chain {
			if !errors.Is(back, want) {
				t.Errorf("%s: SentinelError = %v, want errors.Is %v", tc.code, back, want)
			}
		}
		if tc.chain == nil && back != error(wire) {
			t.Errorf("%s: SentinelError = %v, want the *api.Error itself", tc.code, back)
		}
		if got := APIError(back).Code; got != tc.code {
			t.Errorf("%s: second trip code %q", tc.code, got)
		}
		if got := HTTPStatus(back); got != tc.status {
			t.Errorf("%s: second trip status %d, want %d", tc.code, got, tc.status)
		}
	}
	for _, r := range errorTable {
		if !covered[r.code] {
			t.Errorf("errorTable code %q has no parity case", r.code)
		}
	}

	// The canceled family beyond the two canonical chains: a bare
	// ErrCanceled and the raw context sentinels (the update handler's
	// Wait returns ctx.Err() unwrapped) classify like the wrapped forms,
	// and a deadline wins over everything it is wrapped with.
	for _, tc := range []struct {
		err    error
		code   api.ErrorCode
		status int
	}{
		{ErrCanceled, api.CodeCanceled, 499},
		{context.Canceled, api.CodeCanceled, 499},
		{context.DeadlineExceeded, api.CodeDeadline, http.StatusGatewayTimeout},
		{fmt.Errorf("%w: every replica failed: %w: %w", ErrUnavailable, ErrCanceled, context.DeadlineExceeded),
			api.CodeDeadline, http.StatusGatewayTimeout},
		{fmt.Errorf("%w: every replica failed: %w", ErrUnavailable, ErrOverloaded),
			api.CodeOverloaded, http.StatusServiceUnavailable},
	} {
		if got := APIError(tc.err).Code; got != tc.code {
			t.Errorf("%v: code %q, want %q", tc.err, got, tc.code)
		}
		if got := HTTPStatus(tc.err); got != tc.status {
			t.Errorf("%v: status %d, want %d", tc.err, got, tc.status)
		}
	}
}

// TestTypedErrorsValidation: every validation failure wraps the right
// sentinel, from both the one-shot wrappers and Engine methods.
func TestTypedErrorsValidation(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(10, 8, 4, 7)

	check := func(label string, err error, want error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: want error wrapping %v, got nil", label, want)
			return
		}
		if !errors.Is(err, want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", label, err, want)
		}
	}

	// One-shot wrappers.
	_, err := MSSP(ctx, gr, nil, Options{})
	check("MSSP(no sources)", err, ErrInvalidSource)
	_, err = MSSP(ctx, gr, []int{99}, Options{})
	check("MSSP(out of range)", err, ErrInvalidSource)
	_, err = SSSP(ctx, gr, -1, Options{})
	check("SSSP(-1)", err, ErrInvalidSource)
	_, err = KNearest(ctx, gr, 0, Options{})
	check("KNearest(0)", err, ErrInvalidOption)
	_, err = SourceDetection(ctx, gr, []int{0}, 0, 1, Options{})
	check("SourceDetection(d=0)", err, ErrInvalidOption)
	_, err = SourceDetection(ctx, gr, []int{-3}, 1, 1, Options{})
	check("SourceDetection(bad source)", err, ErrInvalidSource)
	_, err = APSPWeighted(ctx, gr, Options{Epsilon: 2})
	check("APSPWeighted(eps=2)", err, ErrInvalidOption)
	_, err = Diameter(ctx, gr, Options{Workers: -1})
	check("Diameter(workers=-1)", err, ErrInvalidOption)

	// Engine methods report the same sentinels.
	eng, err := newEngine(gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.MSSP(ctx, []int{42})
	check("Engine.MSSP(out of range)", err, ErrInvalidSource)
	_, err = eng.SSSP(ctx, 77)
	check("Engine.SSSP(out of range)", err, ErrInvalidSource)
	_, err = eng.KNearest(ctx, -2)
	check("Engine.KNearest(-2)", err, ErrInvalidOption)

	// Result-side source lookup.
	res, err := eng.MSSP(ctx, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Distance(0, 2); !errors.Is(err, ErrInvalidSource) {
		t.Errorf("MSSPResult.Distance(non-source): got %v, want ErrInvalidSource", err)
	}
}

// TestTypedErrorsRoundLimit: a real over-budget run surfaces ErrRoundLimit
// through the one-shot wrapper and the Engine alike.
func TestTypedErrorsRoundLimit(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(12, 10, 4, 11)
	_, err := SSSP(ctx, gr, 0, Options{MaxRounds: 1})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("one-shot SSSP with MaxRounds=1: got %v, want ErrRoundLimit", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Errorf("round-limit error must not match ErrCanceled: %v", err)
	}
	eng, err := newEngine(gr, Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SSSP(ctx, 0); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("Engine.SSSP with MaxRounds=1: got %v, want ErrRoundLimit", err)
	}
	// Preprocessing is budgeted per run too: the eager build trips it.
	if _, err := NewEngine(ctx, gr, Options{MaxRounds: 1}); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("NewEngine with MaxRounds=1: got %v, want ErrRoundLimit", err)
	}
}

// TestTypedErrorsCanceled: cancellation surfaces ErrCanceled (plus the
// context sentinel, plus the cc-layer sentinel) from every public layer.
func TestTypedErrorsCanceled(t *testing.T) {
	gr := testGraph(16, 14, 5, 13)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	checkCanceled := func(label string, err error, ctxSentinel error) {
		t.Helper()
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: errors.Is(err, ErrCanceled) = false for %v", label, err)
		}
		if !errors.Is(err, ctxSentinel) {
			t.Errorf("%s: errors.Is(err, %v) = false for %v", label, ctxSentinel, err)
		}
	}

	_, err := NewEngine(dead, gr, Options{})
	checkCanceled("NewEngine", err, context.Canceled)
	if !errors.Is(err, cc.ErrCanceled) {
		t.Errorf("NewEngine: cc sentinel lost from chain: %v", err)
	}
	// A host NewEngine builds nothing, and still refuses a dead ctx.
	_, err = NewEngine(dead, gr, Options{Execution: ExecDirect})
	checkCanceled("direct NewEngine", err, context.Canceled)
	_, err = MSSP(dead, gr, []int{0}, Options{})
	checkCanceled("one-shot MSSP", err, context.Canceled)
	_, err = SSSP(dead, gr, 0, Options{})
	checkCanceled("one-shot SSSP", err, context.Canceled)
	_, err = LoadEngine(dead, bytes.NewReader(nil))
	checkCanceled("LoadEngine", err, context.Canceled)

	// A deadline that expires mid-run maps to DeadlineExceeded.
	short, cancelShort := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancelShort()
	time.Sleep(2 * time.Millisecond)
	_, err = Diameter(short, testGraph(24, 20, 6, 17), Options{})
	checkCanceled("one-shot Diameter (deadline)", err, context.DeadlineExceeded)

	// Round-trip through a snapshot: a loaded engine cancels like a fresh
	// one.
	eng, err := NewEngine(context.Background(), gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = loaded.MSSP(dead, []int{0})
	checkCanceled("loaded Engine.MSSP", err, context.Canceled)
}

// TestCanceledBuildDoesNotPoisonCache is the lazy-artifact rule of
// DESIGN.md §10: a canceled lazy build must leave the cache clean, so a
// later query with a live context rebuilds and succeeds; and a canceled
// *waiter* must neither abort the build nor poison the cache for the
// builder.
func TestCanceledBuildDoesNotPoisonCache(t *testing.T) {
	gr := testGraph(20, 18, 6, 23)
	eng, err := newEngine(gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.MSSP(dead, []int{1}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled lazy build: got %v, want ErrCanceled", err)
	}
	if builds := eng.PreprocessStats().Builds; len(builds) != 0 {
		t.Fatalf("canceled build left %d cached builds, want 0", len(builds))
	}
	// The same engine recovers with a live context.
	want, err := eng.MSSP(context.Background(), []int{1})
	if err != nil {
		t.Fatalf("engine poisoned by canceled build: %v", err)
	}
	if builds := eng.PreprocessStats().Builds; len(builds) != 1 {
		t.Fatalf("recovered engine has %d builds, want 1", len(builds))
	}

	// A fresh cold engine must agree exactly: the canceled attempt left
	// no trace in the artifact state.
	cold, err := newEngine(gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cold.MSSP(context.Background(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Dist, ref.Dist) {
		t.Error("post-cancellation rebuild differs from a cold engine")
	}

	// Waiter cancellation: one goroutine builds (live ctx), another waits
	// on the same in-flight artifact with a context that dies immediately.
	// The waiter errors, the builder completes, and the cache ends up
	// with the artifact.
	eng2, err := newEngine(gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var builderErr, waiterErr error
	wg.Add(2)
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	go func() {
		defer wg.Done()
		_, builderErr = eng2.MSSP(context.Background(), []int{2})
	}()
	go func() {
		defer wg.Done()
		// Cancel while (most likely) waiting on the builder's in-flight
		// call; whichever interleaving occurs, the builder must succeed.
		time.AfterFunc(time.Millisecond, cancelWaiter)
		_, waiterErr = eng2.MSSP(waiterCtx, []int{2})
	}()
	wg.Wait()
	if builderErr != nil {
		t.Fatalf("builder failed despite only the waiter canceling: %v", builderErr)
	}
	if waiterErr != nil && !errors.Is(waiterErr, ErrCanceled) {
		t.Errorf("waiter error is untyped: %v", waiterErr)
	}
	if builds := eng2.PreprocessStats().Builds; len(builds) != 1 {
		t.Errorf("waiter cancellation corrupted the cache: %d builds, want 1", len(builds))
	}
}

// TestDeterminismGuardNonFiringDeadline is the public-API determinism
// guard: attaching a deadline that never fires changes nothing - results
// and all deterministic Stats fields are identical to a Background run,
// across worker counts. Run under -race in CI.
func TestDeterminismGuardNonFiringDeadline(t *testing.T) {
	gr := testGraph(32, 40, 8, 31)
	sources := []int{1, 9, 20}
	type outcome struct {
		m *MSSPResult
		a *APSPResult
	}
	var ref *outcome
	for _, workers := range []int{1, 0, 4} {
		for _, withDeadline := range []bool{false, true} {
			ctx := context.Background()
			if withDeadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Hour)
				defer cancel()
			}
			opts := Options{Epsilon: 0.5, Workers: workers}
			m, err := MSSP(ctx, gr, sources, opts)
			if err != nil {
				t.Fatalf("workers=%d deadline=%v: %v", workers, withDeadline, err)
			}
			a, err := APSPWeighted(ctx, gr, opts)
			if err != nil {
				t.Fatalf("workers=%d deadline=%v: %v", workers, withDeadline, err)
			}
			if ref == nil {
				ref = &outcome{m: m, a: a}
				continue
			}
			if !reflect.DeepEqual(m.Dist, ref.m.Dist) || !reflect.DeepEqual(a.Dist, ref.a.Dist) {
				t.Errorf("workers=%d deadline=%v: distances differ from reference", workers, withDeadline)
			}
			statsEqual(t, "MSSP guard", m.Stats, ref.m.Stats)
			statsEqual(t, "APSP guard", a.Stats, ref.a.Stats)
		}
	}
}
