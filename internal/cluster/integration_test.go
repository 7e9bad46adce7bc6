// Multi-process integration test of the sharded serving tier: builds
// the real ccspd binary, starts three daemon processes each loading the
// snapshots the ring places on it, and drives them through
// client.Cluster - asserting cluster-routed answers equal in-process direct
// engine answers for every request kind, then SIGKILLing one replica
// and asserting its graphs degrade to typed unavailable errors while
// every other position keeps answering correctly.
package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/client"
	"github.com/congestedclique/ccsp/internal/cluster"
)

// integrationGraphs mirrors the client package's cluster fixtures:
// distinct sizes so graphs are distinguishable by vector length.
var integrationGraphs = map[string]int{"alpha": 8, "beta": 10, "gamma": 12, "delta": 14, "omega": 9}

// buildEngine builds an engine in the given mode on the same generator the
// in-process cluster tests use.
func buildEngine(t *testing.T, n int, mode ccsp.Execution) *ccsp.Engine {
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
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5, Execution: mode})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// allKinds is one request of every kind against graph g (sized n).
func allKinds(g string, n int) []api.Request {
	return []api.Request{
		{Kind: api.KindSSSP, Graph: g, SSSP: &api.SSSPParams{Source: 1}},
		{Kind: api.KindMSSP, Graph: g, MSSP: &api.MSSPParams{Sources: []int{0, 2}}},
		{Kind: api.KindAPSP, Graph: g},
		{Kind: api.KindAPSP, Graph: g, APSP: &api.APSPParams{Variant: api.APSPWeighted3}},
		{Kind: api.KindDistance, Graph: g, Distance: &api.DistanceParams{From: 0, To: n - 1}},
		{Kind: api.KindDiameter, Graph: g},
		{Kind: api.KindKNearest, Graph: g, KNearest: &api.KNearestParams{K: 2}},
		{Kind: api.KindSourceDetection, Graph: g,
			SourceDetection: &api.SourceDetectionParams{Sources: []int{0, 3}, D: 4, K: 2}},
	}
}

// reservePorts grabs n distinct loopback ports by listening and
// immediately closing. Racy in principle, fine for CI in practice.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// spreadPlacement reserves n member addresses whose ring spreads the
// fixture graphs over at least two owners. Member names carry ephemeral
// ports, so where the ring hashes them is a fresh draw per reservation and
// now and then puts every fixture on one owner; such a draw is discarded
// and the ports reserved again, and only a run of them fails the test.
func spreadPlacement(t *testing.T, n int) (addrs, members []string, ring *cluster.Ring) {
	t.Helper()
	const attempts = 20
	for try := 0; try < attempts; try++ {
		addrs = reservePorts(t, n)
		members = make([]string, n)
		for i, a := range addrs {
			members[i] = "http://" + a
		}
		ring = cluster.NewRing(members)
		owners := make(map[string]bool)
		for g := range integrationGraphs {
			o, ok := ring.Owner(g)
			if !ok {
				t.Fatal("empty ring")
			}
			owners[o] = true
		}
		if len(owners) >= 2 {
			return addrs, members, ring
		}
	}
	t.Fatalf("no placement in %d port reservations spread the fixtures over >= 2 replicas", attempts)
	return nil, nil, nil
}

// daemon is one spawned ccspd process.
type daemon struct {
	cmd *exec.Cmd
	out bytes.Buffer
	url string
}

func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped with -short")
	}
	ctx := context.Background()
	dir := t.TempDir()

	bin := filepath.Join(dir, "ccspd")
	build := exec.Command("go", "build", "-o", bin, "github.com/congestedclique/ccsp/cmd/ccspd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ccspd: %v\n%s", err, out)
	}

	addrs, members, ring := spreadPlacement(t, 3)

	// Build each graph's engine in-process in simulated mode and save its
	// snapshot into the owner's load list - owner-only placement, no
	// failover copies, so killing a replica makes its graphs strictly
	// unavailable. ccspd serves every snapshot direct, so the answers to
	// match, Stats included, are a cold direct engine's on the same graph.
	engines := make(map[string]*ccsp.Engine, len(integrationGraphs))
	loads := make(map[string][]string) // member -> repeated -load flags
	for g, n := range integrationGraphs {
		eng := buildEngine(t, n, ccsp.ExecSimulated)
		engines[g] = buildEngine(t, n, ccsp.ExecDirect)
		snap := filepath.Join(dir, g+".snap")
		f, err := os.Create(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		owner, _ := ring.Owner(g)
		loads[owner] = append(loads[owner], "-load", g+"="+snap)
	}

	// Spawn a daemon per member that owns at least one graph (ccspd
	// requires a source; a member the ring assigned nothing stays dark
	// and the prober correctly never marks it live).
	daemons := make(map[string]*daemon, len(members))
	for i, m := range members {
		if len(loads[m]) == 0 {
			continue
		}
		args := append([]string{"-addr", addrs[i]}, loads[m]...)
		d := &daemon{cmd: exec.Command(bin, args...), url: m}
		d.cmd.Stdout = &d.out
		d.cmd.Stderr = &d.out
		if err := d.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		daemons[m] = d
		t.Cleanup(func() {
			d.cmd.Process.Kill()
			d.cmd.Wait()
			if t.Failed() {
				t.Logf("ccspd %s output:\n%s", d.url, d.out.String())
			}
		})
	}
	for _, d := range daemons {
		waitReady(t, d.url)
	}

	c := client.NewCluster(members)
	defer c.Close()
	if live := c.Live(); len(live) != len(daemons) {
		t.Fatalf("Live() = %v, want the %d spawned members", live, len(daemons))
	}

	// Every request kind, every graph: cluster == in-process direct engine.
	for g, n := range integrationGraphs {
		reqs := allKinds(g, n)
		want, err := engines[g].Batch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Batch(ctx, reqs)
		if err != nil {
			t.Fatalf("graph %s: %v", g, err)
		}
		for i := range got {
			got[i].Cached = want[i].Cached
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("graph %s %s: cluster answer differs\n got %+v\nwant %+v",
					g, reqs[i].Kind, got[i], want[i])
			}
		}
	}

	// SIGKILL alpha's owner mid-run. Its graphs must degrade to typed
	// per-position 503s; graphs on surviving replicas keep answering.
	victim, _ := ring.Owner("alpha")
	vd := daemons[victim]
	if err := vd.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	vd.cmd.Wait()

	var deadG, liveG []string
	for g := range integrationGraphs {
		if o, _ := ring.Owner(g); o == victim {
			deadG = append(deadG, g)
		} else {
			liveG = append(liveG, g)
		}
	}
	if len(liveG) == 0 {
		t.Fatal("no graph survived the kill; placement check should have prevented this")
	}

	// Mixed batch across dead and live graphs: never a whole-batch
	// failure, dead positions typed, live positions still exact.
	var mixed []api.Request
	for _, g := range append(append([]string{}, deadG...), liveG...) {
		mixed = append(mixed, api.Request{Kind: api.KindSSSP, Graph: g, SSSP: &api.SSSPParams{Source: 1}})
	}
	resps, err := c.Batch(ctx, mixed)
	if err != nil {
		t.Fatalf("mixed batch after kill: %v", err)
	}
	for i, resp := range resps {
		g := mixed[i].Graph
		if i < len(deadG) {
			if resp.Error == nil || resp.Error.Code != api.CodeUnavailable {
				t.Fatalf("dead graph %s: error = %+v, want code %q", g, resp.Error, api.CodeUnavailable)
			}
			if resp.Graph != g || resp.Kind != api.KindSSSP {
				t.Errorf("dead graph %s: response echo = (%q, %q)", g, resp.Graph, resp.Kind)
			}
			// errors.Is parity with the single-call path's sentinels.
			if !errors.Is(ccsp.SentinelError(resp.Error), ccsp.ErrUnavailable) {
				t.Errorf("dead graph %s: SentinelError not ErrUnavailable", g)
			}
			continue
		}
		want, qerr := engines[g].Query(ctx, mixed[i])
		if qerr != nil {
			t.Fatal(qerr)
		}
		resp.Cached = want.Cached
		if !reflect.DeepEqual(resp, *want) {
			t.Errorf("survivor graph %s: answer changed after kill\n got %+v\nwant %+v", g, resp, *want)
		}
	}

	// Single-call path agrees: typed sentinel for dead, exact for live.
	if _, err := c.Query(ctx, api.Request{Kind: api.KindDiameter, Graph: deadG[0]}); !errors.Is(err, ccsp.ErrUnavailable) {
		t.Errorf("dead graph query: err = %v, want ErrUnavailable", err)
	}
	if _, err := c.Query(ctx, api.Request{Kind: api.KindDiameter, Graph: liveG[0]}); err != nil {
		t.Errorf("survivor graph query: %v", err)
	}
}

// waitReady polls member/readyz until it reports 200 or the deadline
// passes.
func waitReady(t *testing.T, member string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(member + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("replica %s never became ready", member)
}
