package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// multiGraphServer builds a server holding a default graph plus two
// named graphs with visibly different distance structures.
func multiGraphServer(t *testing.T) (*httptest.Server, map[string]*ccsp.Engine) {
	t.Helper()
	engines := make(map[string]*ccsp.Engine)
	_, engines[""] = testEngine(t, 8)
	_, engines["ring"] = testEngine(t, 10)
	_, engines["web"] = testEngine(t, 12)
	s, err := New(Config{Engine: engines[""]})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ring", "web"} {
		if err := s.AddDynamicGraph(name, ccsp.NewDynamicEngine(engines[name])); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, engines
}

func TestReadyzAdvertisesGraphs(t *testing.T) {
	ts, _ := multiGraphServer(t)
	var ready api.Ready
	getJSON(t, ts.URL+"/readyz", 200, &ready)
	if !ready.Ready {
		t.Error("readyz reports not ready on a fully loaded server")
	}
	if want := []string{"", "ring", "web"}; !reflect.DeepEqual(ready.Graphs, want) {
		t.Errorf("readyz graphs = %v, want %v", ready.Graphs, want)
	}

	var h api.Health
	getJSON(t, ts.URL+"/healthz", 200, &h)
	if h.Status != "ok" {
		t.Errorf("healthz status = %q", h.Status)
	}
	if want := []string{"ring", "web"}; !reflect.DeepEqual(h.Graphs, want) {
		t.Errorf("healthz graphs = %v, want %v (named only)", h.Graphs, want)
	}
}

// TestGraphRoutedQueries pins that a graph-scoped request answers from
// that graph's engine (not the default), echoes the graph ID, and that
// an unregistered ID is a typed 404.
func TestGraphRoutedQueries(t *testing.T) {
	ts, engines := multiGraphServer(t)
	ctx := context.Background()
	for _, graph := range []string{"", "ring", "web"} {
		req := api.Request{Kind: api.KindSSSP, Graph: graph, SSSP: &api.SSSPParams{Source: 1}}
		want, err := engines[graph].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var got api.Response
		postJSON(t, ts.URL+"/v1/query",
			fmt.Sprintf(`{"kind":"sssp","graph":%q,"sssp":{"source":1}}`, graph), 200, &got)
		if got.Graph != graph {
			t.Errorf("graph %q: response echoes %q", graph, got.Graph)
		}
		got.Cached = false
		if !reflect.DeepEqual(got, *want) {
			t.Errorf("graph %q: served response diverges from its engine:\n got %+v\nwant %+v", graph, got, *want)
		}
	}

	// The three graphs have different sizes, so cross-graph cache
	// aliasing would be visible as a wrong-length distance vector.
	var a, b api.Response
	postJSON(t, ts.URL+"/v1/query", `{"kind":"sssp","graph":"ring","sssp":{"source":1}}`, 200, &a)
	postJSON(t, ts.URL+"/v1/query", `{"kind":"sssp","graph":"web","sssp":{"source":1}}`, 200, &b)
	if len(a.SSSP.Dist) == len(b.SSSP.Dist) {
		t.Fatal("test graphs must differ in size")
	}

	body := postJSON(t, ts.URL+"/v1/query", `{"kind":"diameter","graph":"nope"}`, 404, nil)
	if !strings.Contains(string(body), string(api.CodeUnknownGraph)) {
		t.Errorf("unknown graph error body lacks the typed code: %s", body)
	}
}

// TestMixedGraphBatch routes one batch across three engines and an
// unknown graph: every position answers from its own graph, the unknown
// position carries a typed per-position 404 error, and the batch itself
// still returns 200.
func TestMixedGraphBatch(t *testing.T) {
	ts, engines := multiGraphServer(t)
	ctx := context.Background()

	body := `{"requests":[
		{"kind":"sssp","sssp":{"source":0}},
		{"kind":"sssp","graph":"ring","sssp":{"source":0}},
		{"kind":"diameter","graph":"web"},
		{"kind":"diameter","graph":"missing"},
		{"kind":"distance","graph":"ring","distance":{"from":0,"to":3}}
	]}`
	var br api.BatchResponse
	postJSON(t, ts.URL+"/v1/batch", body, 200, &br)
	if len(br.Responses) != 5 {
		t.Fatalf("got %d responses, want 5", len(br.Responses))
	}

	check := func(i int, graph string, req api.Request) {
		t.Helper()
		want, err := engines[graph].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got := br.Responses[i]
		got.Cached = false
		if !reflect.DeepEqual(got, *want) {
			t.Errorf("position %d (graph %q):\n got %+v\nwant %+v", i, graph, got, *want)
		}
	}
	check(0, "", api.Request{Kind: api.KindSSSP, SSSP: &api.SSSPParams{Source: 0}})
	check(1, "ring", api.Request{Kind: api.KindSSSP, Graph: "ring", SSSP: &api.SSSPParams{Source: 0}})
	check(2, "web", api.Request{Kind: api.KindDiameter, Graph: "web"})
	check(4, "ring", api.Request{Kind: api.KindDistance, Graph: "ring", Distance: &api.DistanceParams{From: 0, To: 3}})

	bad := br.Responses[3]
	if bad.Error == nil || bad.Error.Code != api.CodeUnknownGraph {
		t.Errorf("unknown-graph position error = %+v, want code %s", bad.Error, api.CodeUnknownGraph)
	}
	if bad.Graph != "missing" || bad.Kind != api.KindDiameter {
		t.Errorf("error position echoes graph %q kind %q", bad.Graph, bad.Kind)
	}
}

// TestGraphScopedCache pins that graph-scoped requests hit the shared
// LRU under their own qualified keys: a repeat is Cached, and the same
// request on another graph is not.
func TestGraphScopedCache(t *testing.T) {
	ts, _ := multiGraphServer(t)
	var first, repeat, other api.Response
	postJSON(t, ts.URL+"/v1/query", `{"kind":"mssp","graph":"ring","mssp":{"sources":[0,2]}}`, 200, &first)
	postJSON(t, ts.URL+"/v1/query", `{"kind":"mssp","graph":"ring","mssp":{"sources":[2,0,2]}}`, 200, &repeat)
	postJSON(t, ts.URL+"/v1/query", `{"kind":"mssp","graph":"web","mssp":{"sources":[0,2]}}`, 200, &other)
	if first.Cached {
		t.Error("first scoped query reported Cached")
	}
	if !repeat.Cached {
		t.Error("equivalent scoped repeat missed the cache")
	}
	if other.Cached {
		t.Error("same request on a different graph hit the other graph's entry")
	}
	if !reflect.DeepEqual(first.MSSP, repeat.MSSP) {
		t.Error("cached repeat diverged from the original answer")
	}
}

// TestDeferredStartup pins the listen-early lifecycle: a Deferred server
// is alive but answers 503 everywhere until engines are registered and
// SetReady flips, at which point it serves normally.
func TestDeferredStartup(t *testing.T) {
	s, err := New(Config{Deferred: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var ready api.Ready
	getJSON(t, ts.URL+"/readyz", 503, &ready)
	if ready.Ready {
		t.Error("deferred server reports ready before SetReady")
	}
	var h api.Health
	getJSON(t, ts.URL+"/healthz", 503, &h)
	if h.Status != "starting" {
		t.Errorf("healthz status = %q, want starting", h.Status)
	}
	body := postJSON(t, ts.URL+"/v1/query", `{"kind":"diameter"}`, 503, nil)
	if !strings.Contains(string(body), string(api.CodeUnavailable)) {
		t.Errorf("pre-ready query error lacks the unavailable code: %s", body)
	}

	_, eng := testEngine(t, 8)
	dyn := ccsp.NewDynamicEngine(eng)
	if err := s.AddDynamicGraph("", dyn); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDynamicGraph("", dyn); err == nil {
		t.Error("duplicate graph registration accepted")
	}
	if err := s.AddDynamicGraph("no:colons", dyn); err == nil {
		t.Error("malformed graph ID accepted")
	}
	s.SetReady()

	getJSON(t, ts.URL+"/readyz", 200, &ready)
	if !ready.Ready || !reflect.DeepEqual(ready.Graphs, []string{""}) {
		t.Errorf("post-ready readyz = %+v", ready)
	}
	var resp api.Response
	postJSON(t, ts.URL+"/v1/query", `{"kind":"diameter"}`, 200, &resp)
	if resp.Diameter == nil {
		t.Errorf("post-ready query failed: %+v", resp)
	}
}
