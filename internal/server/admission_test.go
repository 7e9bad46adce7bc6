package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// newAdmissionServer builds a server with explicit admission knobs and
// returns both the Server (for white-box access to the admission state)
// and its test listener. Caching is disabled so every request reaches
// the admission gate.
func newAdmissionServer(t testing.TB, n int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	_, eng := testEngine(t, n)
	cfg.Engine = eng
	cfg.CacheSize = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postSSSP posts one SSSP request and returns the raw response (status,
// Retry-After header and body are all under test here).
func postSSSP(t testing.TB, url string, source int) *http.Response {
	t.Helper()
	body, _ := json.Marshal(api.Request{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: source}})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdmissionShedsWhenFull is the deterministic half of the contract:
// with one execution slot and no queue, a request arriving while the
// slot is held is shed with a typed 503 + Retry-After, and the slot's
// release restores service.
func TestAdmissionShedsWhenFull(t *testing.T) {
	s, ts := newAdmissionServer(t, 10, Config{MaxInFlight: 1, MaxQueue: -1})

	// Occupy the only execution slot directly - no racing a real query.
	s.adm.slots <- struct{}{}

	resp := postSSSP(t, ts.URL, 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterHint {
		t.Errorf("Retry-After %q, want %q", got, retryAfterHint)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error == nil || body.Error.Code != api.CodeOverloaded {
		t.Fatalf("error body %+v, want code %q", body.Error, api.CodeOverloaded)
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}

	// Health and readiness never queue: both answer 200 while saturated.
	for _, ep := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s during overload: status %d, want 200", ep, r.StatusCode)
		}
	}

	// Releasing the slot restores service.
	<-s.adm.slots
	ok := postSSSP(t, ts.URL, 0)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", ok.StatusCode)
	}
}

// TestAdmissionQueueWaitSheds: a query that gets a queue slot but no
// execution slot within the queue wait is shed; one that gets a slot in time
// is served.
func TestAdmissionQueueWaitSheds(t *testing.T) {
	s, ts := newAdmissionServer(t, 10, Config{MaxInFlight: 1, MaxQueue: 1})
	s.adm.wait = 30 * time.Millisecond

	s.adm.slots <- struct{}{}
	start := time.Now()
	resp := postSSSP(t, ts.URL, 0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued past wait: status %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("shed after %s, want >= the 30ms queue wait", elapsed)
	}

	// Free the slot while a second query waits in the queue: it must be
	// admitted, not shed.
	done := make(chan *http.Response, 1)
	go func() {
		r, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"kind":"sssp","sssp":{"source":1}}`))
		if err == nil {
			done <- r
		}
	}()
	time.Sleep(5 * time.Millisecond) // let it reach the queue
	<-s.adm.slots
	select {
	case r := <-done:
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("queued query after release: status %d, want 200", r.StatusCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query never completed")
	}
}

// TestAdmissionBoundsInFlight drives far more concurrency than the
// limit and asserts the executing high-water mark never exceeds it
// while every admitted request still succeeds (generous queue + wait).
func TestAdmissionBoundsInFlight(t *testing.T) {
	const limit, clients = 2, 16
	s, ts := newAdmissionServer(t, 12, Config{MaxInFlight: limit, MaxQueue: clients})
	s.adm.wait = 30 * time.Second

	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			resp := postSSSP(t, ts.URL, src%12)
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Errorf("%d/%d requests failed under a generous queue", n, clients)
	}
	if peak := s.adm.peak.Load(); peak > limit {
		t.Errorf("in-flight peak %d exceeds the limit %d", peak, limit)
	}
	if peak := s.adm.peak.Load(); peak == 0 {
		t.Error("in-flight peak never moved; admission gate not on the query path?")
	}
}

// TestAdmissionSaturation floods a one-slot server while the slot is
// held: everything is shed as a typed 503, no request sneaks past the
// bound, health stays green, and the flood leaks no goroutines.
func TestAdmissionSaturation(t *testing.T) {
	const clients = 24
	s, ts := newAdmissionServer(t, 10, Config{MaxInFlight: 1, MaxQueue: 1})
	s.adm.wait = 10 * time.Millisecond

	baseline := runtime.NumGoroutine()
	s.adm.slots <- struct{}{}

	var wg sync.WaitGroup
	var got503, other atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			resp := postSSSP(t, ts.URL, src%10)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				other.Add(1)
				return
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil ||
				body.Error == nil || body.Error.Code != api.CodeOverloaded {
				other.Add(1)
				return
			}
			got503.Add(1)
		}(i)
	}
	wg.Wait()

	if got503.Load() != clients || other.Load() != 0 {
		t.Errorf("typed 503s: %d, other outcomes: %d (want %d/0)", got503.Load(), other.Load(), clients)
	}
	if got := s.shed.Value(); got != clients {
		t.Errorf("shed counter %d, want %d", got, clients)
	}
	if peak := s.adm.peak.Load(); peak != 0 {
		t.Errorf("in-flight peak %d while the slot was held externally, want 0", peak)
	}

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz during saturation: %d, want 200", r.StatusCode)
	}

	<-s.adm.slots
	// The flood must drain completely: poll until the goroutine count
	// returns to (near) the pre-flood baseline. Idle keep-alive
	// connections in the shared client's pool carry goroutines of their
	// own; drop them so only a real server-side leak can fail this.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		http.DefaultClient.CloseIdleConnections()
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionDisabled: a negative MaxInFlight turns the gate off
// entirely - no admission state, queries flow.
func TestAdmissionDisabled(t *testing.T) {
	s, ts := newAdmissionServer(t, 10, Config{MaxInFlight: -1})
	if s.adm != nil {
		t.Fatal("MaxInFlight < 0 should disable admission")
	}
	resp := postSSSP(t, ts.URL, 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionDefaults pins the knob resolution: zero values pick the
// documented defaults.
func TestAdmissionDefaults(t *testing.T) {
	a := newAdmission(0, 0)
	want := 4 * runtime.GOMAXPROCS(0)
	if cap(a.slots) != want {
		t.Errorf("default limit %d, want %d", cap(a.slots), want)
	}
	if cap(a.queued) != want {
		t.Errorf("default queue %d, want %d", cap(a.queued), want)
	}
	if a.wait != defaultQueueWait {
		t.Errorf("default wait %s, want %s", a.wait, defaultQueueWait)
	}
	if q := newAdmission(3, -1); cap(q.queued) != 0 {
		t.Errorf("negative queue resolved to %d, want 0", cap(q.queued))
	}
}

// TestAdmissionCacheHitsBypass: with the cache enabled and the only
// slot held, a cached response still answers 200 - the bound protects
// engine work, not the LRU.
func TestAdmissionCacheHitsBypass(t *testing.T) {
	_, eng := testEngine(t, 10)
	s, err := New(Config{Engine: eng, MaxInFlight: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	warm := postSSSP(t, ts.URL, 0) // populate the cache
	io.Copy(io.Discard, warm.Body) //nolint:errcheck
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d", warm.StatusCode)
	}

	s.adm.slots <- struct{}{}
	defer func() { <-s.adm.slots }()

	hit := postSSSP(t, ts.URL, 0)
	defer hit.Body.Close()
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("cache hit during saturation: status %d, want 200", hit.StatusCode)
	}
	var resp api.Response
	if err := json.NewDecoder(hit.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("response not marked cached")
	}
}

// TestAcquireHonorsContext: a caller whose context dies while queued
// gets the cancellation taxonomy, not an overload.
func TestAcquireHonorsContext(t *testing.T) {
	a := newAdmission(1, 1)
	a.wait = time.Minute
	a.slots <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := a.acquire(ctx)
	if !errors.Is(err, ccsp.ErrCanceled) {
		t.Fatalf("queued past a dead context: %v, want ErrCanceled", err)
	}
	if errors.Is(err, ccsp.ErrOverloaded) {
		t.Fatal("context death misreported as overload")
	}
	// The queue slot must have been returned.
	select {
	case a.queued <- struct{}{}:
		<-a.queued
	default:
		t.Fatal("queue slot leaked after context cancellation")
	}
}
