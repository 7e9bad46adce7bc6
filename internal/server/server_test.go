package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// jsonDist maps the in-process Unreachable sentinel to the wire's -1,
// the conversion the query plane applies before responses leave the
// engine (kept here so the tests state expectations independently).
func jsonDist(d int64) int64 {
	if d >= ccsp.Unreachable {
		return -1
	}
	return d
}

// testEngine builds a small connected weighted graph and a warm engine.
func testEngine(t testing.TB, n int) (*ccsp.Graph, *ccsp.Engine) {
	t.Helper()
	gr := randomGraph(n)
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return gr, eng
}

// randomGraph is a connected weighted graph on n nodes: a random tree plus
// up to n random edges, the same graph for the same n.
func randomGraph(n int) *ccsp.Graph {
	rng := rand.New(rand.NewSource(int64(n) + 5))
	gr := ccsp.NewGraph(n)
	for v := 1; v < n; v++ {
		gr.MustAddEdge(v, rng.Intn(v), rng.Int63n(9)+1)
	}
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			gr.MustAddEdge(u, v, rng.Int63n(9)+1)
		}
	}
	return gr
}

func newTestServer(t testing.TB, eng *ccsp.Engine, cfg Config) *httptest.Server {
	t.Helper()
	cfg.Engine = eng
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getJSON fetches url and decodes the response into out, asserting the
// status code.
func getJSON(t *testing.T, url string, wantCode int, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
		}
	}
}

// postQuery POSTs one request body to /v1/query, asserts the status code
// and decodes the answer into out: an *api.Response on 200, an *errorBody
// otherwise (nil skips decoding).
func postQuery(t *testing.T, base, body string, wantCode int, out interface{}) {
	t.Helper()
	postJSON(t, base+"/v1/query", body, wantCode, out)
}

func TestEndpointsMatchEngine(t *testing.T) {
	gr, eng := testEngine(t, 16)
	ts := newTestServer(t, eng, Config{})

	var h struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
		Edges  int    `json:"edges"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" || h.Nodes != gr.N() || h.Edges != gr.M() {
		t.Errorf("healthz = %+v, want ok/%d/%d", h, gr.N(), gr.M())
	}

	// SSSP matches a direct engine call (with -1 for unreachable).
	want, err := eng.SSSP(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var sr api.Response
	postQuery(t, ts.URL, `{"kind":"sssp","sssp":{"source":3}}`, http.StatusOK, &sr)
	if sr.SSSP.Source != 3 || sr.SSSP.Iterations != want.Iterations || len(sr.SSSP.Dist) != gr.N() {
		t.Errorf("sssp shape: %+v", sr.SSSP)
	}
	for v, d := range want.Dist {
		if sr.SSSP.Dist[v] != jsonDist(d) {
			t.Errorf("sssp dist[%d] = %d, want %d", v, sr.SSSP.Dist[v], jsonDist(d))
		}
	}
	if sr.Stats.TotalRounds != want.Stats.TotalRounds {
		t.Errorf("sssp rounds %d, want %d", sr.Stats.TotalRounds, want.Stats.TotalRounds)
	}

	// MSSP matches, and a distance query agrees with the MSSP row.
	wantM, err := eng.MSSP(context.Background(), []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	var mr api.Response
	postQuery(t, ts.URL, `{"kind":"mssp","mssp":{"sources":[5,2,5]}}`, http.StatusOK, &mr)
	if !reflect.DeepEqual(mr.MSSP.Sources, wantM.Sources) {
		t.Errorf("mssp sources %v, want %v", mr.MSSP.Sources, wantM.Sources)
	}
	for v := range wantM.Dist {
		for i := range wantM.Dist[v] {
			if mr.MSSP.Dist[v][i] != jsonDist(wantM.Dist[v][i]) {
				t.Errorf("mssp dist[%d][%d] mismatch", v, i)
			}
		}
	}

	wantP, err := eng.MSSP(context.Background(), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	var dr api.Response
	postQuery(t, ts.URL, `{"kind":"distance","distance":{"from":2,"to":9}}`, http.StatusOK, &dr)
	if wd := jsonDist(wantP.Dist[9][0]); dr.Distance.Distance != wd || !dr.Distance.Reachable {
		t.Errorf("distance 2->9 = %+v, want %d", dr.Distance, wd)
	}

	// Diameter matches.
	wantD, err := eng.Diameter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var er api.Response
	postQuery(t, ts.URL, `{"kind":"diameter"}`, http.StatusOK, &er)
	if er.Diameter.Estimate != wantD.Estimate {
		t.Errorf("diameter %d, want %d", er.Diameter.Estimate, wantD.Estimate)
	}

	// Stats reports the serving state.
	var st struct {
		Requests map[string]int64 `json:"requests"`
		Cache    struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Graph struct {
			Nodes int `json:"nodes"`
		} `json:"graph"`
		Preprocess struct {
			TotalRounds int `json:"total_rounds"`
		} `json:"preprocess"`
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Graph.Nodes != gr.N() || st.Requests["total"] == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Preprocess.TotalRounds != eng.PreprocessStats().Total.TotalRounds {
		t.Errorf("stats preprocess rounds %d, want %d", st.Preprocess.TotalRounds, eng.PreprocessStats().Total.TotalRounds)
	}
}

func TestCacheHits(t *testing.T) {
	_, eng := testEngine(t, 12)
	ts := newTestServer(t, eng, Config{CacheSize: 8})

	var first, second api.Response
	postQuery(t, ts.URL, `{"kind":"sssp","sssp":{"source":1}}`, http.StatusOK, &first)
	postQuery(t, ts.URL, `{"kind":"sssp","sssp":{"source":1}}`, http.StatusOK, &second)
	if first.Cached || !second.Cached {
		t.Errorf("cached flags: first=%v second=%v, want false/true", first.Cached, second.Cached)
	}
	if !reflect.DeepEqual(first.SSSP, second.SSSP) {
		t.Error("cached response differs")
	}

	// A distance query shares the MSSP cache: an mssp query for the same
	// single source must be a hit.
	var dr, mr api.Response
	postQuery(t, ts.URL, `{"kind":"distance","distance":{"from":4,"to":7}}`, http.StatusOK, &dr)
	postQuery(t, ts.URL, `{"kind":"mssp","mssp":{"sources":[4]}}`, http.StatusOK, &mr)
	if dr.Cached || !mr.Cached {
		t.Errorf("distance/mssp cache sharing: distance.cached=%v mssp.cached=%v", dr.Cached, mr.Cached)
	}
}

func TestBadRequests(t *testing.T) {
	_, eng := testEngine(t, 10)
	ts := newTestServer(t, eng, Config{})

	// Out-of-range IDs are typed ccsp.ErrInvalidSource → 422.
	for _, body := range []string{
		`{"kind":"sssp","sssp":{"source":99}}`,
		`{"kind":"mssp","mssp":{"sources":[-2]}}`,
		`{"kind":"distance","distance":{"from":0,"to":1000}}`,
	} {
		var e errorBody
		postQuery(t, ts.URL, body, http.StatusUnprocessableEntity, &e)
		if e.Error == nil || e.Error.Message == "" {
			t.Errorf("%s: empty error message", body)
		}
	}

	// The query-string routes of the pre-plane server are gone.
	for _, path := range []string{"/v1/sssp?source=1", "/v1/mssp?sources=1", "/v1/distance?from=0&to=1", "/v1/diameter"} {
		getJSON(t, ts.URL+path, http.StatusNotFound, nil)
	}
}

func TestRequestTimeout(t *testing.T) {
	_, eng := testEngine(t, 24)
	// A nanosecond budget: every fresh query times out - and, unlike the
	// pre-context server, the timed-out run is actually stopped, so a
	// retry times out again instead of being rescued by a background
	// completion filling the cache.
	ts := newTestServer(t, eng, Config{Timeout: time.Nanosecond})
	for i := 0; i < 3; i++ {
		var e errorBody
		postQuery(t, ts.URL, `{"kind":"diameter"}`, http.StatusGatewayTimeout, &e)
		if e.Error == nil || e.Error.Code != api.CodeDeadline {
			t.Errorf("timeout: error %+v, want code %q", e.Error, api.CodeDeadline)
		}
	}

	// The engine survives canceled queries unharmed: a direct call with a
	// live context still answers.
	if _, err := eng.Diameter(context.Background()); err != nil {
		t.Fatalf("engine unusable after timed-out requests: %v", err)
	}
}

// TestCanceledRequestStopsRun is the regression test for the old
// runBounded leak: a canceled request must observably stop the underlying
// simulation - the query goroutines exit and the CPU-bound run halts -
// not merely return an error while the run burns on in the background.
func TestCanceledRequestStopsRun(t *testing.T) {
	_, eng := testEngine(t, 48)
	s, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	baseline := runtime.NumGoroutine()

	// A request whose context is already dead: the run aborts at entry.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"kind":"diameter"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("pre-canceled request: status %d, want %d: %s", rec.Code, statusClientClosedRequest, rec.Body)
	}
	if entries, _, _ := s.cache.Stats(); entries != 0 {
		t.Errorf("canceled request left %d cache entries", entries)
	}

	// A request canceled mid-run: the handler returns 499 once the
	// simulator unwinds at its next barrier.
	ctx2, cancel2 := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel2)
	defer timer.Stop()
	req2 := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"kind":"mssp","mssp":{"sources":[1,2,3]}}`)).WithContext(ctx2)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	if rec2.Code != statusClientClosedRequest && rec2.Code != http.StatusOK {
		t.Fatalf("mid-run cancel: status %d: %s", rec2.Code, rec2.Body)
	}
	if rec2.Code == http.StatusOK {
		t.Log("query finished before the 10ms cancel; covered by the pre-canceled case above")
	}

	// The observable halt: every simulator goroutine (one per clique node
	// plus the coordinator) must exit promptly. The old runBounded left
	// the whole run alive for as long as the query took.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled request leaked goroutines: %d running, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// statusClientClosedRequest is nginx's non-standard 499, the
// conventional status for "the client went away before we could answer".
const statusClientClosedRequest = 499

// TestStatusMapping pins the statuses the handlers answer wrapped errors
// with (the table itself is the root package's; TestErrorTableParity
// walks every code).
func TestStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"deadline", fmt.Errorf("q: %w: %w", ccsp.ErrCanceled, context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"client-cancel", fmt.Errorf("q: %w: %w", ccsp.ErrCanceled, context.Canceled), statusClientClosedRequest},
		{"round-limit", fmt.Errorf("q: %w", ccsp.ErrRoundLimit), http.StatusServiceUnavailable},
		{"invalid-source", fmt.Errorf("q: %w", ccsp.ErrInvalidSource), http.StatusUnprocessableEntity},
		{"invalid-option", fmt.Errorf("q: %w", ccsp.ErrInvalidOption), http.StatusUnprocessableEntity},
		{"plain", fmt.Errorf("missing parameter"), http.StatusBadRequest},
	} {
		if got := ccsp.HTTPStatus(tc.err); got != tc.want {
			t.Errorf("%s: HTTPStatus = %d, want %d", tc.name, got, tc.want)
		}
	}

	// End-to-end, the same chain is exercised by TestBadRequests (422),
	// TestRequestTimeout (504) and TestCanceledRequestStopsRun (499);
	// the ErrRoundLimit wrap from a real over-budget run is pinned by the
	// root package's typed-error tests.
}

// TestConcurrentHandlers is the race-enabled acceptance test for the
// serving layer: many goroutines send SSSP/MSSP/distance/diameter queries
// and read /v1/stats against one shared engine, and every response must match the
// corresponding direct Engine call.
func TestConcurrentHandlers(t *testing.T) {
	gr, eng := testEngine(t, 16)
	ts := newTestServer(t, eng, Config{CacheSize: 4}) // small cache: exercise eviction under load

	// Direct-engine expectations, computed once up front and converted to
	// the JSON convention (-1 for unreachable).
	wantSSSP := map[int][]int64{}
	wantMSSP := map[int][][]int64{}
	wantPair := map[int][][]int64{} // MSSP(context.Background(), {s}): what a distance query from s slices
	for s := 0; s < 4; s++ {
		r, err := eng.SSSP(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		wantSSSP[s] = jsonVec(r.Dist)
		m, err := eng.MSSP(context.Background(), []int{s, s + 4})
		if err != nil {
			t.Fatal(err)
		}
		wantMSSP[s] = jsonMat(m.Dist)
		p, err := eng.MSSP(context.Background(), []int{s})
		if err != nil {
			t.Fatal(err)
		}
		wantPair[s] = jsonMat(p.Dist)
	}
	wantD, err := eng.Diameter(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := (g + i) % 4
				switch g % 4 {
				case 0:
					var sr api.Response
					if err := fetch(ts.URL+"/v1/query", fmt.Sprintf(`{"kind":"sssp","sssp":{"source":%d}}`, s), &sr); err != nil {
						errs <- err
						continue
					}
					if !reflect.DeepEqual(sr.SSSP.Dist, wantSSSP[s]) {
						errs <- fmt.Errorf("sssp(%d) distances differ from direct engine call", s)
					}
				case 1:
					var mr api.Response
					if err := fetch(ts.URL+"/v1/query", fmt.Sprintf(`{"kind":"mssp","mssp":{"sources":[%d,%d]}}`, s, s+4), &mr); err != nil {
						errs <- err
						continue
					}
					if !reflect.DeepEqual([][]int64(mr.MSSP.Dist), wantMSSP[s]) {
						errs <- fmt.Errorf("mssp(%d,%d) distances differ from direct engine call", s, s+4)
					}
				case 2:
					to := (s + 7) % gr.N()
					var dr api.Response
					if err := fetch(ts.URL+"/v1/query", fmt.Sprintf(`{"kind":"distance","distance":{"from":%d,"to":%d}}`, s, to), &dr); err != nil {
						errs <- err
						continue
					}
					if want := wantPair[s][to][0]; dr.Distance.Distance != want {
						errs <- fmt.Errorf("distance(%d,%d) = %d, want %d", s, to, dr.Distance.Distance, want)
					}
				default:
					var er api.Response
					if err := fetch(ts.URL+"/v1/query", `{"kind":"diameter"}`, &er); err != nil {
						errs <- err
						continue
					}
					if er.Diameter.Estimate != wantD.Estimate {
						errs <- fmt.Errorf("diameter = %d, want %d", er.Diameter.Estimate, wantD.Estimate)
					}
				}
				// Interleave stats reads: they take the same locks.
				if i%3 == 0 {
					if err := fetch(ts.URL+"/v1/stats", "", &struct{}{}); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func jsonVec(dist []int64) []int64 {
	out := make([]int64, len(dist))
	for i, d := range dist {
		out[i] = jsonDist(d)
	}
	return out
}

func jsonMat(dist [][]int64) [][]int64 {
	out := make([][]int64, len(dist))
	for i, row := range dist {
		out[i] = jsonVec(row)
	}
	return out
}

// fetch is getJSON / postQuery for worker goroutines, which may not call
// t.Fatal: it GETs url (POSTs body when there is one) and decodes a 200
// into out; anything else comes back as an error.
func fetch(url, body string, out interface{}) error {
	method := http.MethodGet
	if body != "" {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", url, body, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}
