package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// TestQueryCountersCacheOff: a query a cache-off daemon answers through
// Plan.Answer - a distance's one-cell read, an mssp, apsp or knearest
// answer lent and given back - is counted exactly like one a cache-on
// daemon runs and stores: ccspd_queries_total, the
// ccsp_engine_query_seconds count and /v1/stats' requests.queries each
// move by one per query, never zero and never two.
func TestQueryCountersCacheOff(t *testing.T) {
	_, eng := testEngine(t, 12)
	for _, size := range []int{-1, 16} {
		ts := newTestServer(t, eng, Config{CacheSize: size})
		for _, body := range []string{
			`{"kind":"distance","distance":{"from":1,"to":7}}`,
			`{"kind":"distance","distance":{"from":2,"to":2}}`,
			`{"kind":"mssp","mssp":{"sources":[3]}}`,
			`{"kind":"mssp","mssp":{"sources":[0,2,4,6,8,10,11,1]}}`,
			`{"kind":"apsp"}`,
			`{"kind":"apsp","apsp":{"variant":"weighted3"}}`,
			`{"kind":"knearest","knearest":{"k":4}}`,
		} {
			before := queryCounters(t, ts.URL)
			postJSON(t, ts.URL+"/v1/query", body, http.StatusOK, nil)
			after := queryCounters(t, ts.URL)
			for name, v := range before {
				if d := after[name] - v; d != 1 {
					t.Errorf("cache size %d, %s: %s moved by %v, want 1", size, body, name, d)
				}
			}
		}
	}
}

// TestCacheBytesGauge: ccspd_cache_bytes and /v1/stats' cache.bytes are
// the sum of the stored entries' sizes, len(body) + 8·len(col), after every
// step of a scripted run of puts, overwrites (growing and shrinking) and
// evictions, and after real queries fill and churn the cache - where each
// entry is its hit's body, allocated to size, plus an n-cell column for a
// one-source MSSP key and none for any other.
func TestCacheBytesGauge(t *testing.T) {
	_, eng := testEngine(t, 12)
	s, err := New(Config{Engine: eng, CacheSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// check compares both views with the sum of the sizes of the entries the
	// LRU holds, and those entries' keys with live.
	check := func(step string, live ...string) {
		t.Helper()
		var want int64
		var keys []string
		for el := s.cache.order.Front(); el != nil; el = el.Next() {
			le := el.Value.(*lruEntry)
			want += int64(len(le.val.body) + 8*len(le.val.col))
			keys = append(keys, le.key)
		}
		if live != nil && strings.Join(keys, ",") != strings.Join(live, ",") {
			t.Errorf("%s: the LRU holds %v, want %v", step, keys, live)
		}
		var st struct {
			Cache struct {
				Bytes int64 `json:"bytes"`
			} `json:"cache"`
		}
		getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
		if gauge := metricValue(t, ts.URL, "ccspd_cache_bytes"); gauge != float64(want) || st.Cache.Bytes != want {
			t.Errorf("%s: ccspd_cache_bytes %v, /v1/stats cache.bytes %d, stored sizes sum to %d", step, gauge, st.Cache.Bytes, want)
		}
	}
	check("empty", []string{}...)
	for _, step := range []struct {
		key       string
		body, col int
		live      []string // most recent first
	}{
		{"a", 100, 12, []string{"a"}},
		{"b", 40, 0, []string{"b", "a"}},
		{"a", 7, 0, []string{"a", "b"}},
		{"c", 300, 12, []string{"c", "a", "b"}},
		{"d", 5, 0, []string{"d", "c", "a"}},
		{"c", 1000, 0, []string{"c", "d", "a"}},
		{"e", 1, 1, []string{"e", "c", "d"}},
		{"f", 0, 0, []string{"f", "e", "c"}},
	} {
		s.cache.Put(step.key, &entry{body: make([]byte, step.body), col: make([]int64, step.col)})
		check(fmt.Sprintf("put %s (%d B body, %d cells)", step.key, step.body, step.col), step.live...)
	}

	for _, req := range []string{
		`{"kind":"distance","distance":{"from":1,"to":7}}`,
		`{"kind":"mssp","mssp":{"sources":[0,2,4,6,8,10,11,1]}}`,
		`{"kind":"knearest","knearest":{"k":4}}`,
		`{"kind":"mssp","mssp":{"sources":[5]}}`,
		`{"kind":"apsp"}`,
		`{"kind":"diameter"}`,
	} {
		miss := postJSON(t, ts.URL+"/v1/query", req, http.StatusOK, nil)
		check(req)
		front := s.cache.order.Front().Value.(*lruEntry)
		key, e := front.key, front.val
		if hit := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); !strings.Contains(req, `"distance"`) && !bytes.Equal(e.body, hit) {
			t.Errorf("%s: entry body %s, hit body %s", key, e.body, hit)
		}
		wantCol := 0
		if _, sources, ok := strings.Cut(key, "mssp:sources="); ok && !strings.Contains(sources, ",") {
			wantCol = 12
		}
		if len(e.body) != cap(e.body) || len(e.col) != wantCol || (e.stats != nil) != (wantCol > 0) {
			t.Errorf("%s: entry holds a %d-byte body in %d, %d column cells, stats %v; want no slack and %d cells",
				key, len(e.body), cap(e.body), len(e.col), e.stats, wantCol)
		}
	}
}

// metricValue reads one unlabelled series off a daemon's /metrics page.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(page), "\n") {
		if value, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics page carries no %s", name)
	return 0
}

// queryCounters reads the three per-query counters of a daemon: two off
// its /metrics page (the engine histogram summed over execution modes),
// one off /v1/stats.
func queryCounters(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(page), "\n") {
		series, value, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		if name != "ccspd_queries_total" && name != "ccsp_engine_query_seconds_count" {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[name] += v
	}
	if len(out) != 2 {
		t.Fatalf("metrics page carries %v, want both query counters", out)
	}
	var stats struct {
		Requests struct {
			Queries float64 `json:"queries"`
		} `json:"requests"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &stats)
	out["/v1/stats requests.queries"] = stats.Requests.Queries
	return out
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
