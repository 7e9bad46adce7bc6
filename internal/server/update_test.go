package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// pathEngine builds the weighted path 0-1-...-(n-1) (every edge weight
// w) and a warm engine; distances on a path are exact regardless of
// epsilon, so update tests can assert concrete numbers.
func pathEngine(t testing.TB, n int, w int64) (*ccsp.Graph, *ccsp.Engine) {
	t.Helper()
	gr := ccsp.NewGraph(n)
	for v := 1; v < n; v++ {
		gr.MustAddEdge(v-1, v, w)
	}
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return gr, eng
}

// newDynamicServer serves dyn as the default graph.
func newDynamicServer(t testing.TB, dyn *ccsp.DynamicEngine, cfg Config) *httptest.Server {
	t.Helper()
	cfg.Deferred = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDynamicGraph("", dyn); err != nil {
		t.Fatal(err)
	}
	s.SetReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestUpdateBumpsEpochAndServesFresh is the end-to-end mutation flow
// and the epoch-keyed-LRU staleness proof in one: a distance is queried
// (and therefore cached), the graph is mutated through POST /v1/update,
// and the same query must answer with the post-update distance - if the
// LRU key ignored the epoch, the stale cached answer would come back.
func TestUpdateBumpsEpochAndServesFresh(t *testing.T) {
	_, eng := pathEngine(t, 8, 1)
	dyn := ccsp.NewDynamicEngine(eng)
	defer dyn.Close()
	ts := newDynamicServer(t, dyn, Config{})

	var ep epochResponse
	getJSON(t, ts.URL+"/v1/epoch", http.StatusOK, &ep)
	if ep.Epoch != 0 || ep.Pending != 0 {
		t.Fatalf("fresh epoch = %+v, want 0/0", ep)
	}

	// Warm the cache: dist(0,7) on the unit path is exactly 7.
	var d distResponse
	postQuery(t, ts.URL, `{"kind":"distance","distance":{"from":0,"to":7}}`, http.StatusOK, &d)
	if d.Distance.Distance != 7 {
		t.Fatalf("pre-update distance = %d, want 7", d.Distance.Distance)
	}

	// Reweight edge {6,7} to 100: dist(0,7) becomes 106.
	var ur updateResponse
	postJSON(t, ts.URL+"/v1/update", `{"updates":[{"u":6,"v":7,"w":100}]}`, http.StatusOK, &ur)
	if ur.Epoch != 1 || ur.Applied != 1 || ur.Pending {
		t.Fatalf("update response = %+v, want epoch 1, applied 1, not pending", ur)
	}

	getJSON(t, ts.URL+"/v1/epoch", http.StatusOK, &ep)
	if ep.Epoch != 1 {
		t.Fatalf("post-update epoch = %d, want 1", ep.Epoch)
	}
	postQuery(t, ts.URL, `{"kind":"distance","distance":{"from":0,"to":7}}`, http.StatusOK, &d)
	if d.Distance.Distance != 106 {
		t.Fatalf("post-update distance = %d, want 106 (stale cache?)", d.Distance.Distance)
	}

	// Delete the edge: node 7 falls off the path and the wire answers -1.
	postJSON(t, ts.URL+"/v1/update", `{"updates":[{"u":6,"v":7,"w":-1}]}`, http.StatusOK, &ur)
	if ur.Epoch != 2 {
		t.Fatalf("second update epoch = %d, want 2", ur.Epoch)
	}
	postQuery(t, ts.URL, `{"kind":"distance","distance":{"from":0,"to":7}}`, http.StatusOK, &d)
	if d.Distance.Distance != -1 {
		t.Fatalf("post-delete distance = %d, want -1", d.Distance.Distance)
	}
}

// TestUpdateMatchesColdEngine pins the differential guarantee over HTTP:
// after a batch of mutations, the daemon's answers are byte-identical to
// a cold engine built from the final graph.
func TestUpdateMatchesColdEngine(t *testing.T) {
	_, eng := testEngine(t, 24)
	dyn := ccsp.NewDynamicEngine(eng)
	defer dyn.Close()
	ts := newDynamicServer(t, dyn, Config{})

	body := `{"updates":[{"u":0,"v":23,"w":3},{"u":5,"v":6,"w":-1},{"u":10,"v":11,"w":42}]}`
	var ur updateResponse
	postJSON(t, ts.URL+"/v1/update", body, http.StatusOK, &ur)

	// Cold engine on the equivalent final graph.
	cold := ccsp.NewGraph(24)
	gr := dyn.Engine().Graph()
	for u := 0; u < gr.N(); u++ {
		u := u
		gr.Neighbors(u, func(v int, w int64) {
			if u < v {
				cold.MustAddEdge(u, v, w)
			}
		})
	}
	coldEng, err := ccsp.NewEngine(context.Background(), cold, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := coldEng.SSSP(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sr api.Response
	postQuery(t, ts.URL, `{"kind":"sssp","sssp":{"source":0}}`, http.StatusOK, &sr)
	for v, wd := range want.Dist {
		if sr.SSSP.Dist[v] != jsonDist(wd) {
			t.Fatalf("dist[%d] = %d over HTTP, cold engine says %d", v, sr.SSSP.Dist[v], jsonDist(wd))
		}
	}
}

// TestUpdateConfigEngineGraph: there is one kind of served graph. An
// engine handed to the server as Config.Engine is wrapped, so it takes
// an update, serves epoch 1 and reports pending_updates like a graph
// registered with AddDynamicGraph.
func TestUpdateConfigEngineGraph(t *testing.T) {
	_, eng := pathEngine(t, 8, 1)
	ts := newTestServer(t, eng, Config{})

	var ur updateResponse
	postJSON(t, ts.URL+"/v1/update", `{"updates":[{"u":6,"v":7,"w":100}]}`, http.StatusOK, &ur)
	if ur.Epoch != 1 || ur.Applied != 1 || ur.Pending {
		t.Fatalf("update response = %+v, want epoch 1, applied 1, not pending", ur)
	}
	var d distResponse
	postQuery(t, ts.URL, `{"kind":"distance","distance":{"from":0,"to":7}}`, http.StatusOK, &d)
	if d.Distance.Distance != 106 {
		t.Fatalf("post-update distance = %d, want 106", d.Distance.Distance)
	}

	var stats struct {
		Graph map[string]interface{} `json:"graph"`
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if got, ok := stats.Graph["pending_updates"]; !ok || got != float64(0) {
		t.Errorf("stats graph block = %v, want pending_updates 0", stats.Graph)
	}
	if got := stats.Graph["epoch"]; got != float64(1) {
		t.Errorf("stats epoch = %v, want 1", got)
	}
	if _, ok := stats.Graph["dynamic"]; ok {
		t.Errorf("stats still carries the static/dynamic flag: %v", stats.Graph)
	}
}

// TestUpdateValidation walks the 4xx surface of POST /v1/update.
func TestUpdateValidation(t *testing.T) {
	_, eng := pathEngine(t, 8, 1)
	dyn := ccsp.NewDynamicEngine(eng)
	defer dyn.Close()
	ts := newDynamicServer(t, dyn, Config{})

	cases := []struct {
		name, body string
		wantCode   int
		wantFrag   string
	}{
		{"malformed JSON", `{"updates":`, http.StatusBadRequest, "malformed"},
		{"empty batch", `{"updates":[]}`, http.StatusBadRequest, "no updates"},
		{"unknown graph", `{"graph":"nope","updates":[{"u":0,"v":1,"w":5}]}`, http.StatusNotFound, "unknown_graph"},
		{"self loop", `{"updates":[{"u":3,"v":3,"w":5}]}`, http.StatusUnprocessableEntity, "invalid_option"},
		{"out of range", `{"updates":[{"u":0,"v":99,"w":5}]}`, http.StatusUnprocessableEntity, "invalid_option"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := postJSON(t, ts.URL+"/v1/update", tc.body, tc.wantCode, nil)
			if !strings.Contains(string(body), tc.wantFrag) {
				t.Fatalf("body = %s, want fragment %q", body, tc.wantFrag)
			}
		})
	}

	// Oversized batch (over maxUpdatesPerBatch entries) is refused
	// before any staging happens.
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	for i := 0; i <= maxUpdatesPerBatch; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"u":0,"v":1,"w":%d}`, i+1)
	}
	sb.WriteString(`]}`)
	postJSON(t, ts.URL+"/v1/update", sb.String(), http.StatusBadRequest, nil)

	// GET on the update endpoint is a 405.
	resp, err := http.Get(ts.URL + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/update = %d, want 405", resp.StatusCode)
	}

	// Nothing above may have burned an epoch: the graph never changed.
	var ep epochResponse
	getJSON(t, ts.URL+"/v1/epoch", http.StatusOK, &ep)
	if ep.Epoch != 0 {
		t.Fatalf("epoch after rejected updates = %d, want 0", ep.Epoch)
	}
}

// TestAsyncUpdate: an async request answers Pending with the target
// epoch, and polling GET /v1/epoch observes the publish.
func TestAsyncUpdate(t *testing.T) {
	_, eng := pathEngine(t, 8, 1)
	dyn := ccsp.NewDynamicEngine(eng)
	defer dyn.Close()
	ts := newDynamicServer(t, dyn, Config{})

	var ur updateResponse
	postJSON(t, ts.URL+"/v1/update", `{"updates":[{"u":0,"v":1,"w":9}],"async":true}`,
		http.StatusOK, &ur)
	if ur.Epoch != 1 || !ur.Pending {
		t.Fatalf("async response = %+v, want epoch 1 pending", ur)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ep epochResponse
		getJSON(t, ts.URL+"/v1/epoch", http.StatusOK, &ep)
		if ep.Epoch >= ur.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch stuck at %d, async update never published", ep.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var d distResponse
	postQuery(t, ts.URL, `{"kind":"distance","distance":{"from":0,"to":1}}`, http.StatusOK, &d)
	if d.Distance.Distance != 9 {
		t.Fatalf("post-async distance = %d, want 9", d.Distance.Distance)
	}
}

// TestEpochEndpointRouting: the default graph resolves with a fresh
// 0/0 epoch and pending count, unknown graphs 404.
func TestEpochEndpointRouting(t *testing.T) {
	_, eng := testEngine(t, 8)
	ts := newTestServer(t, eng, Config{})

	var ep epochResponse
	getJSON(t, ts.URL+"/v1/epoch", http.StatusOK, &ep)
	if ep.Epoch != 0 || ep.Pending != 0 {
		t.Fatalf("fresh epoch = %+v, want 0/0", ep)
	}
	resp, err := http.Get(ts.URL + "/v1/epoch?graph=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph epoch = %d, want 404", resp.StatusCode)
	}
}

// epochResponse / updateResponse / distResponse mirror the wire shapes
// locally so the tests state expectations independently of api types.
type epochResponse struct {
	Graph   string `json:"graph"`
	Epoch   uint64 `json:"epoch"`
	Pending int    `json:"pending"`
}

type updateResponse struct {
	Graph   string `json:"graph"`
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
	Pending bool   `json:"pending"`
}

type distResponse struct {
	Distance struct {
		Distance int64 `json:"distance"`
	} `json:"distance"`
}
