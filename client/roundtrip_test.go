package client

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/server"
)

// harness spins a real HTTP server over a warm engine and a client
// pointed at it - the full wire round trip, in process.
func harness(t testing.TB, n int, cfg server.Config) (*ccsp.Engine, *Client) {
	t.Helper()
	return harnessWith(t, n, cfg, ccsp.Options{Epsilon: 0.5})
}

func harnessWith(t testing.TB, n int, cfg server.Config, opts ccsp.Options) (*ccsp.Engine, *Client) {
	t.Helper()
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
	eng, err := ccsp.NewEngine(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eng, New(ts.URL)
}

// TestRoundTripAllKinds: every api.Request kind through client → server
// → Engine equals the direct Engine.Query call - result payloads AND
// deterministic stats, via reflect.DeepEqual over the whole response.
func TestRoundTripAllKinds(t *testing.T) {
	eng, c := harness(t, 16, server.Config{CacheSize: -1}) // no cache: each remote call is a real run
	ctx := context.Background()

	reqs := map[string]api.Request{
		"sssp":             {Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 3}},
		"mssp":             {Kind: api.KindMSSP, MSSP: &api.MSSPParams{Sources: []int{2, 5, 2}}},
		"apsp-auto":        {Kind: api.KindAPSP},
		"apsp-weighted3":   {Kind: api.KindAPSP, APSP: &api.APSPParams{Variant: api.APSPWeighted3}},
		"distance":         {Kind: api.KindDistance, Distance: &api.DistanceParams{From: 2, To: 9}},
		"diameter":         {Kind: api.KindDiameter},
		"knearest":         {Kind: api.KindKNearest, KNearest: &api.KNearestParams{K: 3}},
		"source-detection": {Kind: api.KindSourceDetection, SourceDetection: &api.SourceDetectionParams{Sources: []int{0, 5}, D: 3, K: 2}},
	}
	if len(reqs) < len(api.Kinds()) {
		t.Fatalf("round-trip covers %d kinds, schema has %d", len(reqs), len(api.Kinds()))
	}
	for name, req := range reqs {
		want, err := eng.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: direct: %v", name, err)
		}
		got, err := c.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: remote: %v", name, err)
		}
		got.Cached = want.Cached
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: remote response differs from direct Engine.Query\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestRoundTripConvenienceMethods: the api constructors build the
// requests the Engine answers, one per kind over the wire.
func TestRoundTripConvenienceMethods(t *testing.T) {
	eng, c := harness(t, 12, server.Config{})
	ctx := context.Background()

	wantS, err := eng.SSSP(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query(ctx, api.SSSP(2))
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range wantS.Dist {
		want := d
		if want >= ccsp.Unreachable {
			want = api.Unreachable
		}
		if rs.SSSP.Dist[v] != want {
			t.Errorf("sssp dist[%d] = %d, want %d", v, rs.SSSP.Dist[v], want)
		}
	}
	if rs.SSSP.Iterations != wantS.Iterations {
		t.Errorf("iterations %d, want %d", rs.SSSP.Iterations, wantS.Iterations)
	}

	rm, err := c.Query(ctx, api.MSSP(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rm.MSSP.Sources, []int{1, 4}) {
		t.Errorf("mssp sources %v", rm.MSSP.Sources)
	}

	ra, err := c.Query(ctx, api.APSP(api.APSPAuto))
	if err != nil {
		t.Fatal(err)
	}
	if ra.APSP.Variant != api.APSPWeighted {
		t.Errorf("auto variant %q on a weighted graph", ra.APSP.Variant)
	}
	ra3, err := c.Query(ctx, api.APSP(api.APSPWeighted3))
	if err != nil {
		t.Fatal(err)
	}
	if ra3.APSP.Variant != api.APSPWeighted3 {
		t.Errorf("weighted3 variant %q", ra3.APSP.Variant)
	}

	rd, err := c.Query(ctx, api.Distance(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Distance.From != 0 || rd.Distance.To != 5 {
		t.Errorf("distance echo %+v", rd.Distance)
	}
	if _, err := c.Query(ctx, api.Diameter()); err != nil {
		t.Fatal(err)
	}
	rk, err := c.Query(ctx, api.KNearest(2))
	if err != nil {
		t.Fatal(err)
	}
	if rk.KNearest.K != 2 || len(rk.KNearest.Neighbors) != 12 {
		t.Errorf("knearest shape %+v", rk.KNearest)
	}
	rsd, err := c.Query(ctx, api.SourceDetection([]int{0, 3}, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rsd.SourceDetection.D != 3 || rsd.SourceDetection.K != 2 {
		t.Errorf("source-detection echo %+v", rsd.SourceDetection)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Nodes != 12 {
		t.Errorf("health %+v", h)
	}
}

// TestRoundTripTypedErrors is the errors.Is identity half of the
// round-trip contract: remote failures dispatch on the same sentinels as
// local Engine calls.
func TestRoundTripTypedErrors(t *testing.T) {
	_, c := harness(t, 10, server.Config{})
	ctx := context.Background()

	if _, err := c.Query(ctx, api.SSSP(999)); !errors.Is(err, ccsp.ErrInvalidSource) {
		t.Errorf("remote out-of-range source: %v, want ErrInvalidSource", err)
	}
	if _, err := c.Query(ctx, api.MSSP()); !errors.Is(err, ccsp.ErrInvalidSource) {
		t.Errorf("remote empty source set: %v, want ErrInvalidSource", err)
	}
	if _, err := c.Query(ctx, api.KNearest(0)); !errors.Is(err, ccsp.ErrInvalidOption) {
		t.Errorf("remote k=0: %v, want ErrInvalidOption", err)
	}
	if _, err := c.Query(ctx, api.SourceDetection([]int{0}, 0, 1)); !errors.Is(err, ccsp.ErrInvalidOption) {
		t.Errorf("remote d=0: %v, want ErrInvalidOption", err)
	}
	if _, err := c.Query(ctx, api.Request{Kind: "bfs"}); !errors.Is(err, api.ErrMalformed) {
		t.Errorf("remote unknown kind: %v, want api.ErrMalformed", err)
	}

	// Client-side cancellation: the caller's dead context joins the
	// cancellation taxonomy exactly like a local Engine call.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err := c.Query(canceled, api.Diameter())
	if !errors.Is(err, ccsp.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: %v, want ErrCanceled + context.Canceled", err)
	}
}

// TestRoundTripServerTimeout: the server's per-request deadline comes
// back as ErrCanceled wrapping context.DeadlineExceeded - remote and
// local deadline failures dispatch identically.
func TestRoundTripServerTimeout(t *testing.T) {
	_, c := harness(t, 24, server.Config{Timeout: time.Nanosecond})
	_, err := c.Query(context.Background(), api.Diameter())
	if !errors.Is(err, ccsp.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("server timeout: %v, want ErrCanceled + context.DeadlineExceeded", err)
	}
}

// TestRoundTripBatch: a mixed remote batch equals the same batch run
// directly on the engine, per-request errors included.
func TestRoundTripBatch(t *testing.T) {
	eng, c := harness(t, 14, server.Config{CacheSize: -1})
	ctx := context.Background()

	reqs := []api.Request{
		{Kind: api.KindMSSP, MSSP: &api.MSSPParams{Sources: []int{0, 3}}},
		{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 2}},
		{Kind: api.KindDiameter},
		{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 500}}, // typed failure
		{Kind: api.KindDistance, Distance: &api.DistanceParams{From: 0, To: 5}},
		{Kind: api.KindKNearest, KNearest: &api.KNearestParams{K: 2}},
	}
	want, err := eng.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d responses, want %d", len(got), len(want))
	}
	for i := range got {
		if (got[i].Error == nil) != (want[i].Error == nil) {
			t.Errorf("position %d: remote error %+v, direct %+v", i, got[i].Error, want[i].Error)
			continue
		}
		if got[i].Error != nil {
			if got[i].Error.Code != want[i].Error.Code {
				t.Errorf("position %d: code %q, direct %q", i, got[i].Error.Code, want[i].Error.Code)
			}
			continue
		}
		g := got[i]
		g.Cached = want[i].Cached
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("position %d: remote response differs from Engine.Batch\n got %+v\nwant %+v", i, g, want[i])
		}
	}

	// Transport-level batch failure: a non-responding base URL surfaces
	// as a client error, never a half-filled slice.
	dead := New("http://127.0.0.1:1")
	if _, err := dead.Batch(ctx, reqs); err == nil {
		t.Error("batch against a dead daemon succeeded")
	}
}

// TestStatusErrorFallback: a body without the typed envelope (a proxy
// error page, say) degrades to a plain error instead of panicking or
// misclassifying.
func TestStatusErrorFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "<html>bad gateway</html>", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.Query(context.Background(), api.Diameter())
	if err == nil {
		t.Fatal("want error")
	}
	for _, sentinel := range []error{ccsp.ErrCanceled, ccsp.ErrRoundLimit, ccsp.ErrInvalidSource, ccsp.ErrInvalidOption, api.ErrMalformed} {
		if errors.Is(err, sentinel) {
			t.Errorf("untyped 502 misclassified as %v", sentinel)
		}
	}
}

// TestQueryAllocsIndependentOfN is the wire half of the root package's test
// of that name (DESIGN.md §13): a warm client Query of a large answer - the
// daemon's cache-hit path, Content-Length, one read, one decode - allocates
// a number of objects that does not depend on n, and no more bytes than the
// body, the decoded answer and a stated slack (a quarter of the body, plus
// 128 KiB for both ends' net/http). io.ReadAll's append growth was ~4 extra
// bodies, the reflective [][]Neighbor decode ~4 objects per node, and a body
// sent chunked cannot be read into one buffer at all.
func TestQueryAllocsIndependentOfN(t *testing.T) {
	ctx := context.Background()
	reqs := []api.Request{api.KNearest(8), api.APSP(api.APSPAuto)}
	mallocs := make(map[api.Kind][]uint64)
	for _, n := range []int{128, 512} {
		_, c := harnessWith(t, n, server.Config{}, ccsp.Options{Epsilon: 0.5, Execution: ccsp.ExecDirect})
		var body struct{ n int64 } // Content-Length of the last response
		c.hc = &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err == nil {
				body.n = resp.ContentLength
			}
			return resp, err
		})}
		for _, req := range reqs {
			// The least of several runs: a GC between two of them empties
			// encoding/json's buffer pool and the daemon regrows its own.
			var objects, bytes uint64 = math.MaxUint64, math.MaxUint64
			var resp *api.Response
			for run := 0; run < 6; run++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				var err error
				if resp, err = c.Query(ctx, req); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if run > 0 { // run 0 is the cache miss
					objects = min(objects, after.Mallocs-before.Mallocs)
					bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
				}
			}
			if !resp.Cached || body.n <= 0 {
				t.Fatalf("n=%d %s: want cache hits of announced length, got cached=%v, Content-Length %d", n, req.Kind, resp.Cached, body.n)
			}
			decoded := uint64(n * 24) // row headers
			if req.Kind == api.KindAPSP {
				decoded += uint64(len(resp.APSP.Dist) * n * 8)
			} else {
				decoded += uint64(n * req.KNearest.K * int(unsafe.Sizeof(api.Neighbor{})))
			}
			t.Logf("n=%d %s: %d objects, %d bytes for a %d-byte body and a %d-byte answer", n, req.Kind, objects, bytes, body.n, decoded)
			if budget := uint64(body.n) + decoded + uint64(body.n)/4 + 128<<10; bytes > budget {
				t.Errorf("n=%d %s: a warm query allocates %d bytes, want <= %d (a %d-byte body, a %d-byte answer)",
					n, req.Kind, bytes, budget, body.n, decoded)
			}
			if objects > 400 {
				t.Errorf("n=%d %s: a warm query allocates %d objects, want a few hundred at most", n, req.Kind, objects)
			}
			mallocs[req.Kind] = append(mallocs[req.Kind], objects)
		}
	}
	for kind, m := range mallocs {
		if diff := int64(m[1]) - int64(m[0]); diff > 24 || diff < -24 {
			t.Errorf("%s: %d objects at n=128 but %d at n=512: the wire path allocates per node again", kind, m[0], m[1])
		}
	}
}
