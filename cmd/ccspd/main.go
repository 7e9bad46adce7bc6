// Command ccspd is the distance-serving daemon: it loads (or builds,
// then saves) preprocessed snapshots of one or more graphs and serves
// approximate shortest-path queries over HTTP/JSON from shared query
// engines. Every engine it serves runs the direct kernels (ccsp.ExecDirect):
// a -graph build and every update rebuild are direct, and -load restores
// any snapshot - one ccsp built in simulated mode included - through
// ccsp.LoadEngineDirect, so every answer's stats report zero rounds.
//
// Startup sources (at least one required):
//
//	ccspd -load warm.snap                       # restore a saved engine: no preprocessing
//	ccspd -graph g.txt                          # build from an edge-list or DIMACS .gr file
//	ccspd -graph g.gr -save warm.snap           # build once, persist a direct-built snapshot
//	ccspd -load roads=roads.snap -load web=web.snap   # serve named graphs (api.Request.Graph routes)
//	ccspd -graphs snapdir/                      # serve every NAME.snap in a directory as graph NAME
//
// A bare -load PATH or -graph serves the default (unnamed) graph -
// requests without a "graph" field - and is byte-identical to the
// single-graph daemon of earlier releases. NAME=PATH loads and -graphs
// entries serve named graphs addressed by api.Request.Graph; both
// forms combine freely as long as names are unique.
//
// Serving:
//
//	ccspd -graph g.txt -addr :8080 -timeout 30s -cache 128 -workers 0
//
// The daemon listens immediately and loads snapshots behind the
// listener: GET /healthz answers 503 {"status":"starting"} and GET
// /readyz answers 503 {"ready":false} until every snapshot is loaded
// and preprocessed, then both flip (readyz lists the served graph
// IDs). Cluster probers key on /readyz; load balancers on /healthz.
//
// Endpoints: the typed query plane POST /v1/query (one api.Request:
// sssp, mssp, apsp, distance, diameter, knearest, source_detection) and
// POST /v1/batch (many requests, one deduped engine batch with
// per-request errors), plus GET /healthz, /readyz and /v1/stats.
// Distances are -1 for unreachable pairs. The client package (and
// cmd/ccsp -server) speaks the POST plane. GET /metrics exposes every
// serving and engine counter in Prometheus text format.
//
// Every graph is served mutable: POST /v1/update applies a batch of
// edge insertions, reweights, and deletions as one atomic graph
// generation - a background rebuild preprocesses the mutated graph and
// hot-swaps it in while queries keep answering at the previous epoch -
// and GET /v1/epoch reports the serving graph version (which also keys
// the response cache, so stale answers can never be served across an
// update). A snapshot restored with -load resumes its persisted epoch.
//
// Admission control bounds concurrent query execution: -max-inflight
// slots (default 4×GOMAXPROCS) plus a short -max-queue wait line.
// Requests beyond both shed immediately with a typed 503 "overloaded"
// error and a Retry-After hint; cache hits and health probes bypass
// admission entirely, so /healthz stays green under overload.
//
// -debug-addr starts a second listener (keep it loopback-only) with
// pprof profiles and the same /metrics page - the public port serves
// neither profiles nor anything else about the process. SIGINT/SIGTERM
// during startup aborts a build in flight at its next cancellation poll (a
// partial -save snapshot is never left behind: the write is temp-file +
// rename, and an interrupted build never reaches it); during serving it
// drains in-flight requests, then cancels whatever is still running after
// the drain window, and exits cleanly.
//
// Example:
//
//	$ ccspd -graph graph.txt -save warm.snap &
//	$ curl -s localhost:8080/v1/query -d '{"kind":"distance","distance":{"from":0,"to":41}}'
//	{"kind":"distance","distance":{"from":0,"to":41,"distance":12,"reachable":true},...}
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ccspd:", err)
		os.Exit(1)
	}
}

// loadList collects repeated -load flags.
type loadList []string

func (l *loadList) String() string { return strings.Join(*l, ",") }

func (l *loadList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// source is one graph to serve: a snapshot to restore, or (for the
// default graph only) a graph file to preprocess.
type source struct {
	name     string // "" = default graph
	path     string
	build    bool   // preprocess path as a graph file instead of restoring
	savePath string // non-empty: persist the built engine
}

func run() error {
	var loads loadList
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		graphPath = flag.String("graph", "", "graph file (edge list or DIMACS .gr) to build the default engine from")
		savePath  = flag.String("save", "", "write the preprocessed engine to this snapshot file after building (with -graph)")
		graphsDir = flag.String("graphs", "", "directory of NAME.snap snapshots to serve as named graphs")
		eps       = flag.Float64("eps", 0.5, "approximation parameter ε (ignored with -load: the snapshot pins it)")
		workers   = flag.Int("workers", 0, "upper bound on the kernels' row-pass goroutines (0 = GOMAXPROCS; ignored with -load: the snapshot pins it)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request query timeout (0 = none)")
		cacheSize = flag.Int("cache", 128, "response cache capacity in entries (negative = disabled)")
		maxInFl   = flag.Int("max-inflight", 0, "admission control: max queries executing concurrently (0 = 4×GOMAXPROCS, negative = unlimited)")
		maxQueue  = flag.Int("max-queue", 0, "admission control: max queries waiting for an execution slot (0 = same as -max-inflight, negative = no queue)")
		debugAddr = flag.String("debug-addr", "", "optional separate listener for pprof + /metrics, which the serving port never exposes (e.g. 127.0.0.1:6060); off when empty")
	)
	flag.Var(&loads, "load", "snapshot to restore: PATH for the default graph, or NAME=PATH for a named graph (repeatable)")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v (use -graph/-load/-graphs)", flag.Args())
	}
	sources, err := gatherSources(*graphPath, *savePath, loads, *graphsDir)
	if err != nil {
		return err
	}

	// One signal context governs the whole lifecycle: SIGINT/SIGTERM
	// during the preprocessing builds aborts them at their next
	// cancellation poll; during serving it triggers the
	// graceful drain below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before loading: the daemon is immediately probeable
	// (healthz/readyz answer 503 "starting") while snapshots restore and
	// builds run, so cluster membership sees alive-but-loading instead
	// of connection-refused.
	srv, err := server.New(server.Config{
		Deferred:    true,
		Timeout:     *timeout,
		CacheSize:   *cacheSize,
		MaxInFlight: *maxInFl,
		MaxQueue:    *maxQueue,
	})
	if err != nil {
		return err
	}

	// Opt-in debug listener: pprof profiles and the same /metrics page
	// as the serving port. A separate listener (typically loopback-only)
	// keeps profiling endpoints off the public port.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dbgSrv := &http.Server{Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbgSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("ccspd: debug listener: %v", err)
			}
		}()
		defer dbgSrv.Close() //nolint:errcheck
		log.Printf("ccspd: debug endpoints (pprof, metrics) on %s", dln.Addr())
	}

	// Request contexts derive from serveCtx: if the drain window below
	// expires with queries still running, canceling it stops them at
	// their next poll instead of leaking CPU-bound runs past exit.
	serveCtx, cancelServe := context.WithCancel(context.Background())
	defer cancelServe()
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return serveCtx },
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("ccspd: listening on %s (loading %d graph(s); poll /readyz for readiness)", ln.Addr(), len(sources))

	opts := ccsp.Options{Epsilon: *eps, Workers: *workers, Execution: ccsp.ExecDirect}
	interrupted := false
	for _, src := range sources {
		eng, err := loadSource(ctx, src, opts)
		if err != nil {
			if errors.Is(err, ccsp.ErrCanceled) {
				log.Printf("ccspd: interrupted during startup, exiting (no snapshot written)")
				interrupted = true
				break
			}
			httpSrv.Close() //nolint:errcheck
			return err
		}
		// Every graph serves mutable: POST /v1/update stages edge
		// mutations, a background rebuild publishes them, and the epoch
		// (resumed from the snapshot, if any) keys the response cache.
		dyn := ccsp.NewDynamicEngine(eng)
		defer dyn.Close()
		if err := srv.AddDynamicGraph(src.name, dyn); err != nil {
			httpSrv.Close() //nolint:errcheck
			return err
		}
	}
	if !interrupted {
		srv.SetReady()
		log.Printf("ccspd: ready, serving %s", describeGraphs(sources))
	}

	if !interrupted {
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
	}
	log.Printf("ccspd: shutting down (draining in-flight queries)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(shutCtx)
	cancelServe() // whatever outlived the drain window unwinds now
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The doc contract: an expired drain window is still a clean
		// exit - the base-context cancellation above stops the stragglers.
		log.Printf("ccspd: drain window expired; canceled remaining queries")
	case err != nil:
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// gatherSources validates the flag combinations and produces the load
// plan: at most one default-graph source (-graph, or a bare -load
// PATH), any number of uniquely named snapshots (NAME=PATH loads and
// -graphs directory entries), at least one source overall.
func gatherSources(graphPath, savePath string, loads loadList, graphsDir string) ([]source, error) {
	var sources []source
	seen := make(map[string]string) // name -> origin, for duplicate diagnostics
	add := func(s source, origin string) error {
		if prev, dup := seen[s.name]; dup {
			if s.name == "" {
				return fmt.Errorf("two default-graph sources (%s and %s); name one with NAME=PATH", prev, origin)
			}
			return fmt.Errorf("graph %q defined twice (%s and %s)", s.name, prev, origin)
		}
		if err := api.ValidateGraphID(s.name); err != nil {
			return fmt.Errorf("%s: %w", origin, err)
		}
		seen[s.name] = origin
		sources = append(sources, s)
		return nil
	}

	if savePath != "" && graphPath == "" {
		return nil, fmt.Errorf("-save requires -graph (snapshots restored with -load are already saved)")
	}
	if graphPath != "" {
		if err := add(source{path: graphPath, build: true, savePath: savePath}, "-graph "+graphPath); err != nil {
			return nil, err
		}
	}
	for _, l := range loads {
		s := source{path: l}
		if eq := strings.IndexByte(l, '='); eq >= 0 {
			s.name, s.path = l[:eq], l[eq+1:]
			if s.path == "" {
				return nil, fmt.Errorf("-load %s: empty path", l)
			}
		}
		if err := add(s, "-load "+l); err != nil {
			return nil, err
		}
	}
	if graphsDir != "" {
		snaps, err := filepath.Glob(filepath.Join(graphsDir, "*.snap"))
		if err != nil {
			return nil, err
		}
		if len(snaps) == 0 {
			return nil, fmt.Errorf("-graphs %s: no *.snap files", graphsDir)
		}
		sort.Strings(snaps) // deterministic load order and duplicate reporting
		for _, p := range snaps {
			name := strings.TrimSuffix(filepath.Base(p), ".snap")
			if err := add(source{name: name, path: p}, "-graphs entry "+p); err != nil {
				return nil, err
			}
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("at least one of -graph, -load or -graphs is required")
	}
	return sources, nil
}

// describeGraphs renders the serving set for the ready log line.
func describeGraphs(sources []source) string {
	var names []string
	for _, s := range sources {
		if s.name == "" {
			names = append(names, "the default graph")
		} else {
			names = append(names, fmt.Sprintf("%q", s.name))
		}
	}
	return fmt.Sprintf("%d graph(s): %s", len(sources), strings.Join(names, ", "))
}

// loadSource realizes one source: restore its snapshot, or build from a
// graph file (optionally persisting the warm engine). Canceling ctx
// aborts a build in flight; a -save snapshot is only written after a
// completed build, atomically.
func loadSource(ctx context.Context, src source, opts ccsp.Options) (*ccsp.Engine, error) {
	label := src.name
	if label == "" {
		label = "default"
	}
	if src.build {
		g, err := ccsp.ReadGraphFile(src.path)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		eng, err := ccsp.NewEngine(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		log.Printf("ccspd: [%s] preprocessed %s in %v",
			label, src.path, time.Since(start).Round(time.Millisecond))
		if src.savePath != "" {
			if err := eng.SaveFile(src.savePath); err != nil {
				return nil, err
			}
			log.Printf("ccspd: [%s] saved snapshot to %s", label, src.savePath)
		}
		return eng, nil
	}
	f, err := os.Open(src.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := time.Now()
	eng, err := ccsp.LoadEngineDirect(ctx, f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", src.path, err)
	}
	log.Printf("ccspd: [%s] restored snapshot %s in %v (%d artifacts, %d preprocessing rounds skipped)",
		label, src.path, time.Since(start).Round(time.Millisecond),
		len(eng.PreprocessStats().Builds), eng.PreprocessStats().Total.TotalRounds)
	return eng, nil
}
