// Query plane: the typed request/response API end to end. One
// api.Request schema serves three receivers - the in-process Engine
// (Query/Batch), the HTTP daemon (POST /v1/query, /v1/batch), and the
// client package - so code written against a local engine ports to a
// remote daemon by swapping the receiver. This example builds a small
// network, answers a mixed batch locally through Engine.Batch (one
// preprocessing for the whole batch, the paper's amortization claim),
// round-trips the warm engine through a snapshot (Engine.Save, then
// LoadEngine, as ccspd -save / -load do), serves the restored engine over
// HTTP and re-answers the batch through client.Batch, verifying the
// responses agree position by position.
package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/signal"
	"reflect"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/client"
	"github.com/congestedclique/ccsp/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "queryplane:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	// A 48-node weighted network.
	const n = 48
	rng := rand.New(rand.NewSource(11))
	g := ccsp.NewGraph(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, rng.Intn(v), rng.Int63n(9)+1)
	}
	for e := 0; e < 2*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, rng.Int63n(9)+1)
		}
	}

	eng, err := ccsp.NewEngine(ctx, g, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		return err
	}

	// A mixed batch: every request kind, including one deliberate
	// failure to show per-request error isolation.
	batch := []api.Request{
		api.MSSP(0, 7, 19),
		api.SSSP(3),
		api.Distance(0, 41),
		api.Diameter(),
		api.KNearest(4),
		api.SourceDetection([]int{0, 19}, 4, 2),
		api.APSP(api.APSPWeighted3),
		api.SSSP(9999), // fails alone
	}

	// Local: Engine.Batch. Distinct requests run concurrently, the
	// hopset artifacts are charged once in PreprocessStats.
	local, err := eng.Batch(ctx, batch)
	if err != nil {
		return err
	}
	fmt.Println("local Engine.Batch:")
	printLedger(local)
	pre := eng.PreprocessStats()
	fmt.Printf("  preprocessing charged once: %d rounds over %d build(s)\n\n",
		pre.Total.TotalRounds, len(pre.Builds))

	// Restart: the snapshot restores every artifact without a round.
	var snap bytes.Buffer
	if err := eng.Save(&snap); err != nil {
		return err
	}
	restored, err := ccsp.LoadEngine(ctx, &snap)
	if err != nil {
		return err
	}

	// Remote: the restored engine behind the HTTP plane, the same batch
	// through the client package.
	srv, err := server.New(server.Config{Engine: restored})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	if h, err := c.Health(ctx); err == nil {
		fmt.Printf("remote daemon at %s: %s, n=%d m=%d\n", ts.URL, h.Status, h.Nodes, h.Edges)
	}
	remote, err := c.Batch(ctx, batch)
	if err != nil {
		return err
	}
	fmt.Println("remote client.Batch:")
	printLedger(remote)

	// The two planes agree position by position (the cache flag may
	// differ: the daemon caches, the engine does not).
	for i := range batch {
		l, r := local[i], remote[i]
		r.Cached = l.Cached
		if !reflect.DeepEqual(l, r) {
			return fmt.Errorf("position %d: local and remote responses differ", i)
		}
	}
	fmt.Println("local and remote answers identical for all positions")
	return nil
}

func printLedger(resps []api.Response) {
	for i, r := range resps {
		if r.Error != nil {
			fmt.Printf("  [%d] %-17s error %s: %s\n", i, r.Kind, r.Error.Code, r.Error.Message)
			continue
		}
		fmt.Printf("  [%d] %-17s %4d rounds, %7d words", i, r.Kind, r.Stats.TotalRounds, r.Stats.Words)
		switch r.Kind {
		case api.KindDistance:
			fmt.Printf("  d(%d,%d)=%d", r.Distance.From, r.Distance.To, r.Distance.Distance)
		case api.KindDiameter:
			fmt.Printf("  estimate=%d", r.Diameter.Estimate)
		case api.KindAPSP:
			fmt.Printf("  variant=%s", r.APSP.Variant)
		}
		fmt.Println()
	}
}
