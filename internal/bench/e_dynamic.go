package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/client"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/server"
)

func init() {
	register(Experiment{ID: "E20", Title: "Dynamic graphs: update-to-fresh-answer latency and query latency held during rebuilds", Run: e20})
}

// e20 measures the mutation subsystem per graph size:
//
//   - update->fresh: end-to-end wall time of one synchronous POST
//     /v1/update (stage, background rebuild of the mutated graph, atomic
//     swap) plus the query that reads the new epoch - the operational
//     "how long until a write is answerable" number. Direct-mode
//     rebuilds keep this in engine-build territory (E17), not simulator
//     territory.
//   - held latency: distance queries sampled against the serving engine
//     in-process, steady state vs inside exactly one rebuild window
//     (async update staged, sampled until its epoch publishes). The
//     claim under test is the hot-swap design's: readers take one atomic
//     engine load and never wait on the builder, so the during-rebuild
//     quantiles sit in the steady band rather than the
//     rebuild-duration band. Sampling in-process keeps the measurement
//     about the swap protocol; on a box with few cores the HTTP stack's
//     goroutine hops would otherwise measure scheduler starvation by
//     the CPU-bound build, not blocking.
func e20(c Config) (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "Dynamic updates - update-to-fresh-answer latency and held query latency",
		Columns: []string{"n", "update->fresh p50 ms", "update->fresh max ms",
			"q p50 ms steady", "q p99 ms steady", "q p50 ms during", "q p99 ms during", "rebuild ms"},
	}
	ns := sizes(c.Scale, []int{64, 128}, []int{256, 1024})
	steadyDur := 300 * time.Millisecond
	if c.Scale == Full {
		steadyDur = time.Second
	}
	ctx := context.Background()
	msf := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)) }

	for _, n := range ns {
		g := graphgen.Connected(n, 3*n, graphgen.Weights{Max: 10}, int64(n)+29)
		gr, err := toPublic(g)
		if err != nil {
			return nil, err
		}
		eng, err := ccsp.NewEngine(ctx, gr,
			ccsp.Options{Epsilon: 0.5, Workers: c.Workers, Execution: ccsp.ExecDirect})
		if err != nil {
			return nil, err
		}
		dyn := ccsp.NewDynamicEngine(eng)
		srv, err := server.New(server.Config{Deferred: true})
		if err != nil {
			dyn.Close()
			return nil, err
		}
		if err := srv.AddDynamicGraph("", dyn); err != nil {
			dyn.Close()
			return nil, err
		}
		srv.SetReady()
		ts := httptest.NewServer(srv.Handler())
		cl := client.New(ts.URL)

		// Update-to-fresh-answer, over HTTP: each iteration reweights one
		// spanning edge (a distance-changing write), blocks until the
		// epoch publishes, and re-reads a distance at the new epoch.
		const kUpdates = 8
		updSamples := make([]time.Duration, 0, kUpdates)
		for i := 0; i < kUpdates; i++ {
			begin := time.Now()
			if _, err := cl.Update(ctx, "", []api.EdgeUpdate{{U: 1 + i%(n-1), V: 0, W: int64(5 + i)}}); err != nil {
				ts.Close()
				dyn.Close()
				return nil, err
			}
			if _, err := cl.Query(ctx, api.Distance(0, n-1)); err != nil {
				ts.Close()
				dyn.Close()
				return nil, err
			}
			updSamples = append(updSamples, time.Since(begin))
		}
		ts.Close()
		sort.Slice(updSamples, func(i, j int) bool { return updSamples[i] < updSamples[j] })

		// Held latency, in-process: the same single-epoch read the server
		// takes per request (one atomic engine load, then a query).
		req := api.Distance(0, n-1)
		query := func() (time.Duration, error) {
			e := dyn.Engine()
			begin := time.Now()
			_, err := e.Query(ctx, req)
			return time.Since(begin), err
		}
		if _, err := query(); err != nil { // warm the direct matrices
			dyn.Close()
			return nil, err
		}
		var steady []time.Duration
		for end := time.Now().Add(steadyDur); time.Now().Before(end); {
			lat, err := query()
			if err != nil {
				dyn.Close()
				return nil, err
			}
			steady = append(steady, lat)
		}
		rebuildStart := time.Now()
		epoch, err := dyn.ApplyUpdates(ctx, []EdgeUpdate{{U: 1, V: 0, W: 77}})
		if err != nil {
			dyn.Close()
			return nil, err
		}
		var during []time.Duration
		for dyn.Epoch() < epoch {
			lat, err := query()
			if err != nil {
				dyn.Close()
				return nil, err
			}
			during = append(during, lat)
		}
		rebuildWall := time.Since(rebuildStart)
		dyn.Close()

		q := func(s []time.Duration, f float64) time.Duration {
			if len(s) == 0 {
				return 0
			}
			c := append([]time.Duration(nil), s...)
			sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
			return c[int(f*float64(len(c)-1))]
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			msf(updSamples[len(updSamples)/2]),
			msf(updSamples[len(updSamples)-1]),
			msf(q(steady, 0.5)), msf(q(steady, 0.99)),
			msf(q(during, 0.5)), msf(q(during, 0.99)),
			msf(rebuildWall),
		})
	}
	t.Note("Direct-mode engines over connected graphs with m=3n, GOMAXPROCS=%d. update->fresh times one synchronous POST /v1/update (stage + background rebuild + hot swap) plus the distance query that reads the new epoch, end to end over HTTP, %d samples per n. The held-latency columns sample the same distance query in-process against the serving engine - the identical single-atomic-load read the daemon takes per request - in steady state and then inside exactly one rebuild window (async update staged, sampled until its epoch publishes; \"rebuild ms\" is that window). The claim: readers never wait on the builder, so the during-rebuild quantiles sit in the steady band, not the rebuild-duration band, even while the builder saturates a core.", runtime.GOMAXPROCS(0), 8)
	return t, nil
}

// EdgeUpdate alias avoids the bench package spelling ccsp.EdgeUpdate
// at every literal above.
type EdgeUpdate = ccsp.EdgeUpdate
