package loadgen

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/client"
	"github.com/congestedclique/ccsp/internal/server"
)

// newDaemon spins up a warm in-process daemon over a small random
// connected graph and returns a client plus the node count.
func newDaemon(t testing.TB, n int, cfg server.Config) (*client.Client, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + 5))
	gr := ccsp.NewGraph(n)
	for v := 1; v < n; v++ {
		gr.MustAddEdge(v, rng.Intn(v), rng.Int63n(9)+1)
	}
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), ts
}

func TestRunClosedLoop(t *testing.T) {
	c, _ := newDaemon(t, 24, server.Config{CacheSize: -1})
	rep, err := Run(context.Background(), c, Config{
		Nodes:       24,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Requests != rep.Ops {
		t.Fatalf("closed loop: ops=%d requests=%d, want equal and positive", rep.Ops, rep.Requests)
	}
	if rep.OK != rep.Requests {
		t.Fatalf("against a healthy daemon every request should succeed: ok=%d of %d (errors %v)",
			rep.OK, rep.Requests, rep.ErrorsByCode)
	}
	if rep.QPS <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("implausible stats: qps=%.1f p50=%v p99=%v", rep.QPS, rep.P50, rep.P99)
	}
	var kinds int64
	for _, n := range rep.ByKind {
		kinds += n
	}
	if kinds != rep.Requests {
		t.Fatalf("by-kind counts %d don't sum to requests %d", kinds, rep.Requests)
	}
}

func TestRunBatch(t *testing.T) {
	c, _ := newDaemon(t, 24, server.Config{CacheSize: -1})
	rep, err := Run(context.Background(), c, Config{
		Nodes:       24,
		Duration:    300 * time.Millisecond,
		Concurrency: 2,
		BatchSize:   8,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != rep.Ops*8 {
		t.Fatalf("batch=8: requests=%d want ops*8=%d", rep.Requests, rep.Ops*8)
	}
	if rep.OK != rep.Requests {
		t.Fatalf("ok=%d of %d (errors %v)", rep.OK, rep.Requests, rep.ErrorsByCode)
	}
}

func TestRunOpenLoop(t *testing.T) {
	c, _ := newDaemon(t, 24, server.Config{})
	rep, err := Run(context.Background(), c, Config{
		Nodes:       24,
		Duration:    500 * time.Millisecond,
		Concurrency: 4,
		QPS:         100,
		Mix:         map[api.Kind]int{api.KindDistance: 1},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Open loop at 100 QPS for 0.5s: roughly 50 arrivals; the daemon is
	// warm and cached so the pool keeps up. Allow wide slack for CI.
	if rep.Ops < 10 || rep.Ops > 70 {
		t.Fatalf("open loop at 100qps/0.5s issued %d ops, want ~50", rep.Ops)
	}
	if rep.OK != rep.Requests {
		t.Fatalf("ok=%d of %d (errors %v)", rep.OK, rep.Requests, rep.ErrorsByCode)
	}
}

// newDynamicDaemon is newDaemon with the graph registered mutable, so
// update traffic has somewhere to land.
func newDynamicDaemon(t testing.TB, n int) (*client.Client, *ccsp.DynamicEngine) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + 5))
	gr := ccsp.NewGraph(n)
	for v := 1; v < n; v++ {
		gr.MustAddEdge(v, rng.Intn(v), rng.Int63n(9)+1)
	}
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5, Execution: ccsp.ExecDirect})
	if err != nil {
		t.Fatal(err)
	}
	dyn := ccsp.NewDynamicEngine(eng)
	t.Cleanup(dyn.Close)
	s, err := server.New(server.Config{Deferred: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDynamicGraph("", dyn); err != nil {
		t.Fatal(err)
	}
	s.SetReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), dyn
}

// TestRunWithUpdates mixes write traffic into a closed loop: updates
// must be issued, succeed, advance the graph epoch, and count in the
// by-kind census.
func TestRunWithUpdates(t *testing.T) {
	c, dyn := newDynamicDaemon(t, 24)
	rep, err := Run(context.Background(), c, Config{
		Nodes:       24,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		Mix:         map[api.Kind]int{api.KindDistance: 3, api.KindUpdate: 1},
		UpdateMaxW:  9,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind[api.KindUpdate] == 0 {
		t.Fatalf("mix with update=1 issued no updates: %v", rep.ByKind)
	}
	if rep.OK != rep.Requests {
		t.Fatalf("ok=%d of %d (errors %v)", rep.OK, rep.Requests, rep.ErrorsByCode)
	}
	if dyn.Epoch() == 0 {
		t.Fatal("updates succeeded but the graph epoch never advanced")
	}
}

// TestRunBatchWithUpdates: update positions leave the batch and ride
// their own operations, so requests < ops*BatchSize but every position
// is still counted exactly once.
func TestRunBatchWithUpdates(t *testing.T) {
	c, _ := newDynamicDaemon(t, 24)
	rep, err := Run(context.Background(), c, Config{
		Nodes:       24,
		Duration:    300 * time.Millisecond,
		Concurrency: 2,
		BatchSize:   8,
		Mix:         map[api.Kind]int{api.KindDistance: 3, api.KindUpdate: 1},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind[api.KindUpdate] == 0 {
		t.Fatal("batch mode dropped the update traffic")
	}
	var kinds int64
	for _, n := range rep.ByKind {
		kinds += n
	}
	if kinds != rep.Requests {
		t.Fatalf("by-kind counts %d don't sum to requests %d", kinds, rep.Requests)
	}
	if rep.OK != rep.Requests {
		t.Fatalf("ok=%d of %d (errors %v)", rep.OK, rep.Requests, rep.ErrorsByCode)
	}
}

// TestRunRejectsUpdateMixOnReadOnlyTarget: a Target without the
// mutation surface cannot serve an update mix - config error, not a
// run's worth of failures.
func TestRunRejectsUpdateMixOnReadOnlyTarget(t *testing.T) {
	_, err := Run(context.Background(), readOnlyTarget{}, Config{
		Nodes: 8,
		Mix:   map[api.Kind]int{api.KindUpdate: 1},
	})
	if err == nil {
		t.Fatal("update mix accepted against a read-only target")
	}
}

type readOnlyTarget struct{}

func (readOnlyTarget) Query(context.Context, api.Request) (*api.Response, error) {
	return nil, nil
}
func (readOnlyTarget) Batch(context.Context, []api.Request) ([]api.Response, error) {
	return nil, nil
}

// TestRunCountsSheds drives a deliberately saturated daemon and checks
// that shed requests land in the overloaded bucket, typed - the
// loadgen side of the admission-control contract.
func TestRunCountsSheds(t *testing.T) {
	c, _ := newDaemon(t, 48, server.Config{
		CacheSize:   -1,
		MaxInFlight: 1,
		MaxQueue:    -1, // no wait line: excess sheds instantly
	})
	rep, err := Run(context.Background(), c, Config{
		Nodes:       48,
		Duration:    400 * time.Millisecond,
		Concurrency: 12,
		Mix:         map[api.Kind]int{api.KindMSSP: 1},
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	shed := rep.ErrorsByCode[string(api.CodeOverloaded)]
	if shed == 0 {
		t.Fatalf("12 workers vs MaxInFlight=1 with no queue: expected sheds, got %v over %d requests",
			rep.ErrorsByCode, rep.Requests)
	}
	if got := rep.OK + rep.Errors(); got != rep.Requests {
		t.Fatalf("ok %d + errors %d != requests %d", rep.OK, rep.Errors(), rep.Requests)
	}
	for code := range rep.ErrorsByCode {
		if code == "transport" {
			t.Fatalf("all errors must be typed under overload, got transport errors: %v", rep.ErrorsByCode)
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	cfg := Config{Nodes: 100, Seed: 42, Source: Zipf, Mix: DefaultMix()}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	a, b := newGen(&cfg, 3), newGen(&cfg, 3)
	for i := 0; i < 200; i++ {
		ra, rb := a.reqOf(a.kind()), b.reqOf(b.kind())
		if ra.Kind != rb.Kind || ra.CacheKey() != rb.CacheKey() {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	other := newGen(&cfg, 4)
	same := true
	for i := 0; i < 20; i++ {
		if a.reqOf(a.kind()).CacheKey() != other.reqOf(other.kind()).CacheKey() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("workers 3 and 4 generated identical streams; per-worker seeding broken")
	}
}

func TestZipfSkew(t *testing.T) {
	cfg := Config{Nodes: 1000, Seed: 1, Source: Zipf}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	g := newGen(&cfg, 0)
	counts := make(map[int]int)
	for i := 0; i < 5000; i++ {
		counts[g.node()]++
	}
	// Zipf s=1.1 concentrates mass at small IDs: node 0 must dominate
	// any uniform share (5000/1000 = 5 expected under uniform).
	if counts[0] < 100 {
		t.Fatalf("zipf draw not skewed: node 0 drawn %d/5000 times", counts[0])
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("distance=70, sssp=20,mssp=10")
	if err != nil {
		t.Fatal(err)
	}
	want := map[api.Kind]int{api.KindDistance: 70, api.KindSSSP: 20, api.KindMSSP: 10}
	for k, w := range want {
		if mix[k] != w {
			t.Fatalf("mix[%s]=%d want %d", k, mix[k], w)
		}
	}
	upd, err := ParseMix("distance=9,update=1")
	if err != nil {
		t.Fatalf("update kind rejected in mix: %v", err)
	}
	if upd[api.KindUpdate] != 1 {
		t.Fatalf("update weight = %d, want 1", upd[api.KindUpdate])
	}
	if _, err := ParseMix("bogus=1"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ParseMix("distance=0"); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := ParseMix("distance"); err == nil {
		t.Fatal("missing weight accepted")
	}
	def, err := ParseMix("  ")
	if err != nil || len(def) == 0 {
		t.Fatalf("blank mix should yield the default, got %v, %v", def, err)
	}
}

func TestParseDistribution(t *testing.T) {
	for s, want := range map[string]Distribution{"": Uniform, "uniform": Uniform, "zipf": Zipf} {
		got, err := ParseDistribution(s)
		if err != nil || got != want {
			t.Fatalf("ParseDistribution(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseDistribution("pareto"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Config{}); err == nil {
		t.Fatal("Nodes=0 accepted")
	}
	if _, err := Run(context.Background(), nil, Config{Nodes: 5, QPS: -1}); err == nil {
		t.Fatal("negative QPS accepted")
	}
	if _, err := Run(context.Background(), nil, Config{Nodes: 5, BatchSize: -2}); err == nil {
		t.Fatal("negative BatchSize accepted")
	}
}
