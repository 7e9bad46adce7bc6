// Snapshot store: preprocess once *ever*, not once per process. A warm
// ccsp.Engine is a pile of (β, ε)-hopset artifacts - exactly the reusable
// product of the paper's preprocessing phase (§4) - and Engine.Save
// persists it as a versioned, checksummed snapshot that LoadEngine
// restores without a single simulator round. This example preprocesses a
// 48-node network, saves the engine, restores it (simulating a server
// restart), verifies the restored engine answers byte-identically, and
// starts an in-process HTTP server (the same handlers cmd/ccspd serves)
// to answer a distance query over the wire.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"reflect"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/server"
)

func main() {
	// Ctrl-C cancels the context; every ccsp call below aborts cleanly
	// at its next simulator barrier instead of running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "snapshotserve:", err)
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

	// Cold start: preprocess and save the warm engine.
	coldStart := time.Now()
	eng, err := ccsp.NewEngine(ctx, g, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		return err
	}
	coldElapsed := time.Since(coldStart)

	var snap bytes.Buffer
	if err := eng.Save(&snap); err != nil {
		return err
	}
	fmt.Printf("cold start: %d preprocessing rounds in %v; snapshot is %d bytes\n",
		eng.PreprocessStats().Total.TotalRounds, coldElapsed.Round(time.Millisecond), snap.Len())

	// Restart: restore the engine from the snapshot instead of
	// rebuilding. This is what `ccspd -load` does at boot.
	warmStart := time.Now()
	restored, err := ccsp.LoadEngine(ctx, bytes.NewReader(snap.Bytes()))
	if err != nil {
		return err
	}
	fmt.Printf("warm start: restored in %v (0 simulator rounds)\n",
		time.Since(warmStart).Round(time.Microsecond))

	// The restored engine is indistinguishable: same distances, same
	// round counts.
	sources := []int{3, 17}
	want, err := eng.MSSP(ctx, sources)
	if err != nil {
		return err
	}
	got, err := restored.MSSP(ctx, sources)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got.Dist, want.Dist) || got.Stats.TotalRounds != want.Stats.TotalRounds {
		return fmt.Errorf("restored engine diverged (this cannot happen)")
	}
	fmt.Printf("restored engine matches: MSSP%v in %d rounds, byte-identical distances\n",
		sources, got.Stats.TotalRounds)

	// Serve it. cmd/ccspd wires the same handlers to a real listener.
	srv, err := server.New(server.Config{Engine: restored, Timeout: 10 * time.Second})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query, err := json.Marshal(api.Distance(3, 40))
	if err != nil {
		return err
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(query))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("POST /v1/query %s ->\n%s", query, body)
	return nil
}
