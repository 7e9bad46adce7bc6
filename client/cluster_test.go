package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/cluster"
	"github.com/congestedclique/ccsp/internal/server"
)

// buildEngine makes a small random connected weighted graph engine,
// sized differently per seed so graphs are distinguishable by their
// distance-vector lengths.
func buildEngine(t testing.TB, n int) *ccsp.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
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
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testCluster spins nReplicas real in-process daemons, places graphs
// onto them owner-only by the same ring the Cluster routes with, and
// returns the routing client plus the per-graph engines and servers.
// extraHolders lists graphs to ALSO register on their first ring
// successor, giving those graphs a live failover target.
//
// Members are the stable logical URLs http://replica-<i>.test, which the
// cluster's transport dials at the replica's real httptest address: the
// ring hashes member names, so hashing the ephemeral ports instead made
// placement - and whether spanCheck holds - differ from run to run.
func testCluster(t *testing.T, nReplicas int, graphs map[string]int, extraHolders []string) (*Cluster, map[string]*ccsp.Engine, map[string]*httptest.Server) {
	t.Helper()
	servers := make(map[string]*server.Server)
	tss := make(map[string]*httptest.Server)
	addrs := make(map[string]string) // logical host:port -> listener address
	var members []string
	for i := 0; i < nReplicas; i++ {
		s, err := server.New(server.Config{Deferred: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		host := fmt.Sprintf("replica-%d.test", i)
		addrs[host+":80"] = ts.Listener.Addr().String()
		servers["http://"+host] = s
		tss["http://"+host] = ts
		members = append(members, "http://"+host)
	}
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, addrs[addr])
	}}
	t.Cleanup(tr.CloseIdleConnections)

	ring := cluster.NewRing(members)
	extra := make(map[string]bool, len(extraHolders))
	for _, g := range extraHolders {
		extra[g] = true
	}
	engines := make(map[string]*ccsp.Engine, len(graphs))
	for g, n := range graphs {
		eng := buildEngine(t, n)
		engines[g] = eng
		owner, ok := ring.Owner(g)
		if !ok {
			t.Fatal("empty ring")
		}
		if err := servers[owner].AddDynamicGraph(g, ccsp.NewDynamicEngine(eng)); err != nil {
			t.Fatal(err)
		}
		if extra[g] {
			succ := ring.Successors(g)
			if len(succ) < 2 {
				t.Fatalf("graph %q needs a successor for failover, ring has %d members", g, len(succ))
			}
			if err := servers[succ[1]].AddDynamicGraph(g, ccsp.NewDynamicEngine(eng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range servers {
		s.SetReady()
	}

	c := NewCluster(members, WithProbeInterval(time.Hour), WithProbeThreshold(1),
		WithClientOptions(WithHTTPClient(&http.Client{Transport: tr})))
	t.Cleanup(c.Close)
	return c, engines, tss
}

var clusterGraphs = map[string]int{"alpha": 8, "beta": 10, "gamma": 12, "delta": 14, "omega": 9}

// spanCheck fails the test unless the ring spreads the test graphs over
// at least two replicas - otherwise the fan-out paths are vacuous.
func spanCheck(t *testing.T, c *Cluster) {
	t.Helper()
	owners := make(map[string]bool)
	for g := range clusterGraphs {
		o, _ := c.Owner(g)
		owners[o] = true
	}
	if len(owners) < 2 {
		t.Fatalf("placement spans %d replicas; test graphs must spread over >= 2", len(owners))
	}
}

// TestClusterRoutedQueries: every graph's query through the cluster
// equals the direct engine answer, for a placement spanning multiple
// replicas.
func TestClusterRoutedQueries(t *testing.T) {
	c, engines, _ := testCluster(t, 3, clusterGraphs, nil)
	spanCheck(t, c)
	ctx := context.Background()

	for g, eng := range engines {
		req := api.Request{Kind: api.KindSSSP, Graph: g, SSSP: &api.SSSPParams{Source: 1}}
		want, err := eng.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Query(ctx, req)
		if err != nil {
			t.Fatalf("graph %s: %v", g, err)
		}
		got.Cached = want.Cached
		if !reflect.DeepEqual(got, want) {
			t.Errorf("graph %s: cluster answer differs from its engine\n got %+v\nwant %+v", g, got, want)
		}
	}

	// Unplaced graph: typed unavailable, errors.Is-dispatchable.
	if _, err := c.Query(ctx, api.Request{Kind: api.KindDiameter, Graph: "nowhere"}); !errors.Is(err, ccsp.ErrUnavailable) {
		t.Errorf("unplaced graph: err = %v, want ErrUnavailable", err)
	}
}

// TestClusterNamedGraph: a request stamped with its graph (Request.On)
// routes to the owning replica and echoes the graph, and Health probes
// that graph's replica.
func TestClusterNamedGraph(t *testing.T) {
	c, engines, _ := testCluster(t, 3, clusterGraphs, nil)
	ctx := context.Background()

	want, err := engines["beta"].Query(ctx, api.MSSP(0, 3).On("beta"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(ctx, api.MSSP(0, 3).On("beta"))
	if err != nil {
		t.Fatal(err)
	}
	got.Cached = want.Cached
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cluster MSSP differs from engine\n got %+v\nwant %+v", got, want)
	}
	if resp, err := c.Query(ctx, api.Diameter().On("beta")); err != nil || resp.Graph != "beta" {
		t.Errorf("cluster Diameter = %+v, %v; want graph echo beta", resp, err)
	}
	if h, err := c.Health(ctx, "beta"); err != nil || h.Status != "ok" {
		t.Errorf("cluster Health = %+v, %v", h, err)
	}
	if _, err := c.Health(ctx, "nowhere"); !errors.Is(err, ccsp.ErrUnavailable) {
		t.Errorf("Health of an unplaced graph: err = %v, want ErrUnavailable", err)
	}
}

// TestClusterBatchFanout: one batch spanning every graph plus an
// unplaced one fans out per owning replica and merges back in request
// order; the unplaced position answers a typed in-place 503.
func TestClusterBatchFanout(t *testing.T) {
	c, engines, _ := testCluster(t, 3, clusterGraphs, nil)
	spanCheck(t, c)
	ctx := context.Background()

	var reqs []api.Request
	for _, g := range []string{"alpha", "beta", "gamma", "delta", "omega"} {
		reqs = append(reqs, api.Request{Kind: api.KindSSSP, Graph: g, SSSP: &api.SSSPParams{Source: 2}})
	}
	reqs = append(reqs, api.Request{Kind: api.KindDiameter, Graph: "nowhere"})
	reqs = append(reqs, api.Request{Kind: api.KindSSSP, Graph: "alpha", SSSP: &api.SSSPParams{Source: 999}}) // typed per-position failure

	resps, err := c.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses, want %d", len(resps), len(reqs))
	}
	for i, g := range []string{"alpha", "beta", "gamma", "delta", "omega"} {
		want, err := engines[g].Query(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		got := resps[i]
		got.Cached = want.Cached
		if !reflect.DeepEqual(got, *want) {
			t.Errorf("position %d (graph %s): cluster batch differs from engine\n got %+v\nwant %+v", i, g, got, *want)
		}
	}
	dead := resps[5]
	if dead.Error == nil || dead.Error.Code != api.CodeUnavailable {
		t.Errorf("unplaced position error = %+v, want unavailable", dead.Error)
	}
	if !errors.Is(ccsp.SentinelError(dead.Error), ccsp.ErrUnavailable) {
		t.Error("unplaced position error does not dispatch to ErrUnavailable")
	}
	if bad := resps[6]; bad.Error == nil || bad.Error.Code != api.CodeInvalidSource {
		t.Errorf("typed per-position failure = %+v, want invalid_source", bad.Error)
	}
}

// TestClusterFailover: a graph registered on its owner AND first
// successor keeps answering after the owner dies; owner-only graphs on
// the dead replica degrade to typed 503s, and live replicas' graphs
// are untouched - both for queries and batch positions.
func TestClusterFailover(t *testing.T) {
	c, engines, tss := testCluster(t, 3, clusterGraphs, []string{"alpha"})
	spanCheck(t, c)
	ctx := context.Background()

	owner, _ := c.Owner("alpha")
	// Find a graph owned by the same replica as alpha (owner-only: it
	// dies with the replica) and one owned elsewhere (it must survive).
	var dying, surviving string
	for g := range clusterGraphs {
		if g == "alpha" {
			continue
		}
		if o, _ := c.Owner(g); o == owner {
			dying = g
		} else {
			surviving = g
		}
	}
	if surviving == "" {
		t.Fatal("no graph owned by another replica; enlarge the graph set")
	}

	tss[owner].Close() // SIGKILL-equivalent: connections refuse from here on

	// alpha has a live successor holding it: failover answers correctly.
	req := api.Request{Kind: api.KindSSSP, Graph: "alpha", SSSP: &api.SSSPParams{Source: 1}}
	want, err := engines["alpha"].Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(ctx, req)
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	got.Cached = want.Cached
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failover answer differs from engine\n got %+v\nwant %+v", got, want)
	}
	if alive := c.Live(); len(alive) != 2 {
		t.Errorf("Live() = %v after transport failure, want the 2 survivors", alive)
	}

	// Owner-only graph on the dead replica: typed unavailable.
	if dying != "" {
		if _, err := c.Query(ctx, api.Request{Kind: api.KindDiameter, Graph: dying}); !errors.Is(err, ccsp.ErrUnavailable) {
			t.Errorf("dead owner-only graph: err = %v, want ErrUnavailable", err)
		}
	}

	// Mixed batch: surviving positions answer, dead positions 503 in
	// place, never a whole-batch failure.
	reqs := []api.Request{
		{Kind: api.KindSSSP, Graph: surviving, SSSP: &api.SSSPParams{Source: 0}},
		{Kind: api.KindSSSP, Graph: "alpha", SSSP: &api.SSSPParams{Source: 0}},
	}
	if dying != "" {
		reqs = append(reqs, api.Request{Kind: api.KindDiameter, Graph: dying})
	}
	resps, err := c.Batch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch with a dead replica: %v", err)
	}
	if resps[0].Error != nil || resps[1].Error != nil {
		t.Errorf("live positions errored: %+v / %+v", resps[0].Error, resps[1].Error)
	}
	wantSurv, err := engines[surviving].Query(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	r0 := resps[0]
	r0.Cached = wantSurv.Cached
	if !reflect.DeepEqual(r0, *wantSurv) {
		t.Errorf("surviving position differs from engine\n got %+v\nwant %+v", r0, *wantSurv)
	}
	if dying != "" {
		deadPos := resps[2]
		if deadPos.Error == nil || deadPos.Error.Code != api.CodeUnavailable {
			t.Errorf("dead position error = %+v, want unavailable", deadPos.Error)
		}
		if deadPos.Graph != dying || deadPos.Kind != api.KindDiameter {
			t.Errorf("dead position echo = graph %q kind %q", deadPos.Graph, deadPos.Kind)
		}
	}
}

// TestClusterRefreshRevival: a marked-down replica that answers probes
// again is routable after Refresh.
func TestClusterRefreshRevival(t *testing.T) {
	c, _, _ := testCluster(t, 3, clusterGraphs, nil)
	ctx := context.Background()
	owner, _ := c.Owner("alpha")

	// Simulate the data path downing the owner, then a probe sweep
	// discovering it healthy again.
	if _, err := c.Query(ctx, api.Request{Kind: api.KindDiameter, Graph: "alpha"}); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Members() {
		if m == owner {
			cProberMarkDown(c, m)
		}
	}
	if _, err := c.Query(ctx, api.Request{Kind: api.KindDiameter, Graph: "alpha"}); !errors.Is(err, ccsp.ErrUnavailable) {
		t.Fatalf("downed owner still routable: %v", err)
	}
	c.Refresh(ctx)
	if _, err := c.Query(ctx, api.Request{Kind: api.KindDiameter, Graph: "alpha"}); err != nil {
		t.Fatalf("revived owner not routable: %v", err)
	}
}

// cProberMarkDown reaches the prober for tests in this package.
func cProberMarkDown(c *Cluster, member string) { c.prober.MarkDown(member) }
