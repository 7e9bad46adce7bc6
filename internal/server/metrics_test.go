package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsEndpoint exercises the serving surface and asserts the
// Prometheus page reflects it: request counters by endpoint and class,
// latency histograms, cache and admission families, all under the
// exposition content type.
func TestMetricsEndpoint(t *testing.T) {
	_, eng := testEngine(t, 12)
	s, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// One success, one repeat (cache hit), one typed failure.
	for i := 0; i < 2; i++ {
		r := postSSSP(t, ts.URL, 3)
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, r.StatusCode)
		}
	}
	bad := postSSSP(t, ts.URL, 999)
	io.Copy(io.Discard, bad.Body) //nolint:errcheck
	bad.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want the 0.0.4 exposition type", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, want := range []string{
		"# TYPE ccspd_requests_total counter",
		"# TYPE ccspd_http_requests_total counter",
		`ccspd_http_requests_total{endpoint="query",class="2xx"} 2`,
		`ccspd_http_requests_total{endpoint="query",class="4xx"} 1`,
		"# TYPE ccspd_http_request_seconds histogram",
		`ccspd_http_request_seconds_count{endpoint="query"} 3`,
		"ccspd_cache_hits_total 1",
		"ccspd_cache_misses_total 2",
		"ccspd_ready 1",
		"ccspd_graphs 1",
		"# TYPE ccspd_inflight gauge",
		"ccspd_shed_total 0",
		"# TYPE ccspd_admission_limit gauge",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestDebugHandler: the opt-in debug mux serves pprof and the metrics
// page; the public Handler serves nothing under /debug/ - neither
// profiles nor the expvar page (command line, memstats) it once leaked.
func TestDebugHandler(t *testing.T) {
	_, eng := testEngine(t, 10)
	s, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.DebugHandler())
	t.Cleanup(ts.Close)

	for path, wantInBody := range map[string]string{
		"/debug/pprof/":        "profiles",
		"/debug/pprof/cmdline": "",
		"/metrics":             "ccspd_requests_total",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
			continue
		}
		if wantInBody != "" && !strings.Contains(string(body), wantInBody) {
			t.Errorf("GET %s: body missing %q", path, wantInBody)
		}
	}

	pub := httptest.NewServer(s.Handler())
	t.Cleanup(pub.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/vars"} {
		resp, err := http.Get(pub.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("public handler: GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
