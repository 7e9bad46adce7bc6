// Command ccload is the workload generator for ccspd: it replays a
// configurable mix of query kinds against one daemon or a cluster and
// reports throughput, latency quantiles and a typed error census -
// the external measurement of the serving claims (and of admission
// control: under deliberate overload the interesting output is the
// shed count and how fast those 503s came back).
//
// Usage:
//
//	ccload -targets http://localhost:8080                        # 5s mixed workload, closed loop
//	ccload -targets http://localhost:8080 -qps 500 -duration 30s # open loop at fixed arrival rate
//	ccload -targets http://a:8080,http://b:8080 -graphs g1,g2    # drive a sharded cluster
//	ccload -targets ... -mix distance=70,sssp=20,mssp=10 -dist zipf -batch 16
//	ccload -targets ... -mix distance=90,update=10 -update-maxw 9   # mixed read/write traffic
//
// The node-ID space is discovered from the first target's /healthz
// (override with -n). Closed loop runs -concurrency workers
// back-to-back; -qps switches to open-loop arrivals where overload
// becomes visible as typed "overloaded" errors instead of
// self-throttling. By default requests are not retried, so shed load
// is counted rather than hidden; -retries enables the client's
// Retry-After-aware backoff to measure the retrying-client view.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/congestedclique/ccsp/client"
	"github.com/congestedclique/ccsp/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		targets     = flag.String("targets", "", "comma-separated daemon base URLs; one = direct client, several = cluster routing (required)")
		graphs      = flag.String("graphs", "", "comma-separated graph IDs to spread requests over (empty = default graph)")
		mixFlag     = flag.String("mix", "", "kind mix as kind=weight, e.g. distance=70,sssp=20,update=5 (default mostly-distance)")
		dist        = flag.String("dist", "uniform", "source-ID distribution: uniform | zipf")
		duration    = flag.Duration("duration", 5*time.Second, "run length")
		concurrency = flag.Int("concurrency", 8, "workers (closed-loop in-flight bound / open-loop pool)")
		qps         = flag.Float64("qps", 0, "open-loop aggregate arrival rate (0 = closed loop)")
		batch       = flag.Int("batch", 0, "group requests into /v1/batch operations of this size (0/1 = single queries)")
		nodes       = flag.Int("n", 0, "node-ID space (0 = discover via the first target's /healthz)")
		updateMaxW  = flag.Int64("update-maxw", 16, "max weight for generated edge updates (with update=N in -mix)")
		seed        = flag.Int64("seed", 1, "request-stream seed")
		retries     = flag.Int("retries", 0, "client retries per request (0 = none: shed load is counted, not hidden)")
		retryBase   = flag.Duration("retry-base", 100*time.Millisecond, "retry backoff base (with -retries)")
		wait        = flag.Duration("wait", 10*time.Second, "how long to wait for the first target to become healthy")
		format      = flag.String("format", "text", "output: text | json")
	)
	flag.Parse()

	if *targets == "" {
		return fmt.Errorf("-targets is required")
	}
	members := splitList(*targets)
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		return err
	}
	source, err := loadgen.ParseDistribution(*dist)
	if err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q (text | json)", *format)
	}

	var copts []client.Option
	if *retries > 0 {
		copts = append(copts, client.WithRetry(*retries, *retryBase))
	}

	ctx := context.Background()
	n := *nodes
	if n == 0 {
		n, err = discoverNodes(ctx, members[0], *wait)
		if err != nil {
			return err
		}
	}

	var target loadgen.Target
	if len(members) == 1 {
		target = client.New(members[0], copts...)
	} else {
		cl := client.NewCluster(members, client.WithClientOptions(copts...))
		defer cl.Close()
		cl.Refresh(ctx) // one synchronous sweep so routing starts warm
		target = cl
	}

	rep, err := loadgen.Run(ctx, target, loadgen.Config{
		Mix:         mix,
		Graphs:      splitList(*graphs),
		Nodes:       n,
		Source:      source,
		Duration:    *duration,
		Concurrency: *concurrency,
		QPS:         *qps,
		BatchSize:   *batch,
		UpdateMaxW:  *updateMaxW,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}

	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.Fprint(os.Stdout)
	return nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// discoverNodes polls target's /healthz until it answers healthy (the
// daemon listens before its graphs finish loading) and returns the
// default graph's node count.
func discoverNodes(ctx context.Context, target string, wait time.Duration) (int, error) {
	c := client.New(target)
	deadline := time.Now().Add(wait)
	for {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		h, err := c.Health(hctx)
		cancel()
		if err == nil && h.Nodes > 0 {
			return h.Nodes, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				return 0, fmt.Errorf("%s reports %d nodes; pass -n to set the ID space explicitly", target, h.Nodes)
			}
			return 0, fmt.Errorf("target %s not healthy after %s: %w", target, wait, err)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}
