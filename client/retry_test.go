package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// flakyServer answers 503 (the "still loading" status) to the first
// fail requests on /v1/query, then delegates to ok.
func flakyServer(t *testing.T, fail int64, ok http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= fail {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"unavailable","message":"loading snapshots"}}`)) //nolint:errcheck
			return
		}
		ok.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func okDiameter() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kind":"diameter","diameter":{"estimate":3}}`)) //nolint:errcheck
	})
}

// TestRetryRecoversTransient pins the satellite contract: with retries
// enabled a daemon that answers 503 twice then recovers is invisible to
// the caller; without them the first 503 is the answer.
func TestRetryRecoversTransient(t *testing.T) {
	ts, hits := flakyServer(t, 2, okDiameter())

	bare := New(ts.URL)
	if _, err := bare.Query(context.Background(), api.Diameter()); !errors.Is(err, ccsp.ErrUnavailable) {
		t.Fatalf("retry-less client: err = %v, want ErrUnavailable", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("retry-less client sent %d requests, want 1", got)
	}

	hits.Store(0)
	ts2, hits2 := flakyServer(t, 2, okDiameter())
	retrying := New(ts2.URL, WithRetry(3, time.Millisecond))
	resp, err := retrying.Query(context.Background(), api.Diameter())
	if err != nil {
		t.Fatalf("retrying client: %v", err)
	}
	if resp.Diameter == nil || resp.Diameter.Estimate != 3 {
		t.Fatalf("retrying client answer = %+v", resp)
	}
	if got := hits2.Load(); got != 3 {
		t.Fatalf("retrying client sent %d requests, want 3 (2 failures + 1 success)", got)
	}
}

// TestRetryExhaustion: when the budget runs out the last typed error
// surfaces.
func TestRetryExhaustion(t *testing.T) {
	ts, hits := flakyServer(t, 1<<30, okDiameter())
	c := New(ts.URL, WithRetry(2, time.Millisecond))
	if _, err := c.Query(context.Background(), api.Diameter()); !errors.Is(err, ccsp.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable after exhausted retries", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("sent %d requests, want 3 (initial + 2 retries)", got)
	}
}

// TestRetrySkipsTypedFailures: deterministic query errors are answers,
// not transients - exactly one request goes out.
func TestRetrySkipsTypedFailures(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte(`{"error":{"code":"invalid_source","message":"source 999 out of range"}}`)) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithRetry(5, time.Millisecond))
	if _, err := c.Query(context.Background(), api.SSSP(999)); !errors.Is(err, ccsp.ErrInvalidSource) {
		t.Fatalf("err = %v, want ErrInvalidSource", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("typed failure retried: %d requests, want 1", got)
	}
}

// TestRetryTransportFailure: a connection-refused round trip is
// retryable, and exhausting the budget surfaces ErrTransport.
func TestRetryTransportFailure(t *testing.T) {
	c := New("http://127.0.0.1:1", WithRetry(1, time.Millisecond))
	_, err := c.Query(context.Background(), api.Diameter())
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport", err)
	}
}

// TestBackoffDelay pins the sleep-selection table: exponential growth,
// the maxBackoff cap, and the Retry-After floor an overloaded daemon
// imposes on it.
func TestBackoffDelay(t *testing.T) {
	for name, tc := range map[string]struct {
		base    time.Duration
		attempt int
		floor   time.Duration
		want    time.Duration
	}{
		"exponential":        {100 * time.Millisecond, 2, 0, 400 * time.Millisecond},
		"capped":             {time.Second, 10, 0, maxBackoff},
		"overflow":           {time.Second, 62, 0, maxBackoff},
		"floor-raises":       {time.Millisecond, 0, time.Second, time.Second},
		"floor-ignored":      {4 * time.Second, 1, time.Second, maxBackoff},
		"floor-capped":       {time.Millisecond, 0, time.Minute, maxBackoff},
		"zero-base-defaults": {0, 0, 0, defaultRetryBase},
	} {
		if got := backoffDelay(tc.base, tc.attempt, tc.floor); got != tc.want {
			t.Errorf("%s: backoffDelay(%v, %d, %v) = %v, want %v",
				name, tc.base, tc.attempt, tc.floor, got, tc.want)
		}
	}
}

// TestParseRetryAfter: integer seconds parse (capped), everything else
// degrades to "no hint".
func TestParseRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{
		"1":                             time.Second,
		" 2 ":                           2 * time.Second,
		"9999":                          maxBackoff,
		"0":                             0,
		"-3":                            0,
		"":                              0,
		"bogus":                         0,
		"1.5":                           0,
		"Thu, 01 Jan 2026 00:00:00 GMT": 0,
	} {
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}

// TestRetryHonorsRetryAfter is the end-to-end timing half: a 503 with
// Retry-After: 1 must hold the retry back for at least a second even
// though the configured base is a millisecond.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"shed"}}`)) //nolint:errcheck
			return
		}
		okDiameter().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, WithRetry(1, time.Millisecond))
	start := time.Now()
	if _, err := c.Query(context.Background(), api.Diameter()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v, want >= the 1s Retry-After hint", elapsed)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("sent %d requests, want 2", got)
	}
}

// TestRetryOverloadedExhaustion: a daemon that sheds every attempt
// surfaces ErrOverloaded (typed, dispatchable) once the budget runs out
// - and the shed 503 counts as retryable in the first place.
func TestRetryOverloadedExhaustion(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"shed"}}`)) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, WithRetry(2, time.Millisecond))
	_, err := c.Query(context.Background(), api.Diameter())
	if !errors.Is(err, ccsp.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("sent %d requests, want 3 (initial + 2 retries)", got)
	}
}

// TestRetryHonorsContext: a dead context stops the backoff loop
// promptly instead of sleeping through the remaining budget (50
// retries x 50ms would be seconds).
func TestRetryHonorsContext(t *testing.T) {
	ts, _ := flakyServer(t, 1<<30, okDiameter())
	c := New(ts.URL, WithRetry(50, 50*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, api.Diameter())
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop outlived its context by %v", elapsed)
	}
}
