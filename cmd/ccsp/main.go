// Command ccsp computes shortest-path structures on a graph file using
// the paper's Congested Clique algorithms and reports the simulated
// round complexity.
//
// Graphs are read as whitespace edge lists ("u v [w]", 0-based IDs,
// optional weight, '#' comments) or the DIMACS shortest-path format
// (.gr), auto-detected; pass the path positionally or via -graph.
//
// Usage:
//
//	ccsp -algo apsp  -eps 0.5 graph.txt     # (2+ε)/(2+ε,(1+ε)W) APSP
//	ccsp -algo apsp3 graph.txt              # (3+ε) weighted APSP (§6.1)
//	ccsp -timeout 30s -algo apsp big.gr     # bound the whole run; Ctrl-C also aborts cleanly
//	ccsp -exec direct -algo apsp big.gr     # direct kernel execution: identical answers, no simulator
//	ccsp -algo sssp  -src 0 graph.txt       # exact SSSP (Theorem 33)
//	ccsp -algo mssp  -sources 0,5,9 g.txt   # (1+ε) MSSP (Theorem 3)
//	ccsp -algo diameter graph.txt           # near-3/2 diameter (§7.2)
//	ccsp -algo knearest -k 4 graph.txt      # k nearest + routing witnesses
//	ccsp -algo sourcedetect -sources 0,3 -d 4 -k 2 g.txt  # (S,d,k) detection (Thm 19)
//	ccsp -batch queries.txt graph.txt       # preprocess once, answer many
//	ccsp -graph road.gr -save warm.snap -algo mssp -sources 3   # persist the engine
//	ccsp -load warm.snap -algo diameter     # reuse it: zero preprocessing rounds
//	ccsp -server http://localhost:8080 -algo mssp -sources 0    # query a running ccspd
//	ccsp -server http://localhost:8080 -batch queries.txt       # one POST /v1/batch
//	ccsp -server http://localhost:8080 -graphid roads -algo diameter  # a named graph on a multi-graph daemon
//	ccsp -update 1,5,100 -algo sssp -src 0 graph.txt            # mutate first (w=-1 deletes), then answer
//	ccsp -server http://localhost:8080 -update 1,5,100 -algo sssp -src 0  # POST /v1/update, then query
//	ccsp -cluster http://a:8080,http://b:8080 -graphid roads -algo sssp -src 0  # route through a sharded cluster
//
// With -save or -load, queries run through a persistent ccsp.Engine
// snapshot (the format cmd/ccspd serves from): -save builds the engine
// and writes it after answering, -load restores one and pays no
// preprocessing; the reported stats then cover the query run only, with
// the preprocessing cost printed separately.
//
// With -server, queries are sent to a running ccspd daemon over the
// typed query plane (POST /v1/query; -batch becomes one POST /v1/batch)
// through the client package - no local graph, no local simulation, and
// the same typed errors as local runs. -graphid targets a named graph
// on a multi-graph daemon. With -cluster (comma-separated replica base
// URLs), queries route through the consistent-hash ring to the replica
// owning -graphid, failing over to live ring successors when the owner
// is down - the same placement cmd/ccring prints.
//
// Batch mode loads the graph once, preprocesses it into a reusable
// hopset artifact (ccsp.Engine), and answers one query per line of the
// batch file ("-" for stdin) through Engine.Batch, paying the hopset
// construction once for the whole batch. Query lines ('#' comments and
// blank lines skipped):
//
//	mssp 0,5,9          # (1+ε) multi-source distances
//	sssp 3              # exact single-source distances
//	apsp                # all-pairs (picks Thm 28 or 31 by weights)
//	apsp3               # all-pairs, (3+ε) variant
//	distance 0 5        # one (1+ε) pair
//	diameter            # near-3/2 diameter
//	knearest 4          # k nearest neighbors
//	sourcedetect 0,3 4 2  # sources d k
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/client"
)

func main() {
	if err := run(); err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// -timeout expired: exit 124 like timeout(1), distinct from
			// an operator Ctrl-C.
			fmt.Fprintln(os.Stderr, "ccsp: timed out:", err)
			os.Exit(124)
		case errors.Is(err, ccsp.ErrCanceled):
			fmt.Fprintln(os.Stderr, "ccsp: interrupted:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ccsp:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algo       = flag.String("algo", "apsp", "apsp | apsp3 | sssp | mssp | diameter | knearest | sourcedetect")
		eps        = flag.Float64("eps", 0.5, "approximation parameter ε")
		src        = flag.Int("src", 0, "source for sssp")
		sources    = flag.String("sources", "0", "comma-separated sources for mssp/sourcedetect")
		k          = flag.Int("k", 4, "k for knearest/sourcedetect")
		d          = flag.Int("d", 4, "hop bound d for sourcedetect")
		batch      = flag.String("batch", "", "batch query file ('-' for stdin): preprocess once, answer every line")
		quiet      = flag.Bool("quiet", false, "print only the stats line")
		graphPath  = flag.String("graph", "", "graph file (edge list or DIMACS .gr); alternative to the positional argument")
		savePath   = flag.String("save", "", "write the preprocessed engine snapshot here after answering")
		loadPath   = flag.String("load", "", "restore a preprocessed engine snapshot instead of building one")
		serverURL  = flag.String("server", "", "base URL of a running ccspd daemon: query it instead of simulating locally")
		clusterCSV = flag.String("cluster", "", "comma-separated ccspd replica base URLs: route queries through the consistent-hash ring")
		graphID    = flag.String("graphid", "", "graph ID to query on a multi-graph daemon or cluster (empty = the default graph)")
		timeout    = flag.Duration("timeout", 0, "abort preprocessing+queries after this long (0 = no limit)")
		execMode   = flag.String("exec", "simulated", "execution mode: simulated (round accounting) | direct (kernel, identical answers, no rounds)")
	)
	var updates updateFlags
	flag.Var(&updates, "update", `edge update "u,v,w" applied before answering; w=-1 deletes {u,v} (repeatable)`)
	flag.Parse()
	exec, err := ccsp.ParseExecution(*execMode)
	if err != nil {
		return err
	}
	opts := ccsp.Options{Epsilon: *eps, Execution: exec}

	// Ctrl-C (or -timeout) cancels the context; the simulator unwinds at
	// its next barrier and the run exits cleanly instead of burning CPU.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serverURL != "" || *clusterCSV != "" {
		if *graphPath != "" || *loadPath != "" || *savePath != "" || flag.NArg() != 0 {
			return fmt.Errorf("-server/-cluster query remote daemons; drop -graph/-load/-save and the graph argument")
		}
		if *serverURL != "" && *clusterCSV != "" {
			return fmt.Errorf("use -server (one daemon) or -cluster (a replica set), not both")
		}
		var rc remote
		if *clusterCSV != "" {
			var members []string
			for _, m := range strings.Split(*clusterCSV, ",") {
				if m = strings.TrimSpace(m); m != "" {
					members = append(members, m)
				}
			}
			if len(members) == 0 {
				return fmt.Errorf("-cluster is empty")
			}
			cl := client.NewCluster(members)
			defer cl.Close()
			rc = cl.Graph(*graphID)
			if len(updates) > 0 {
				return fmt.Errorf("-update needs -server (send updates to the replica owning the graph directly)")
			}
		} else {
			c := client.New(*serverURL)
			rc = c
			if len(updates) > 0 {
				ur, err := c.Update(ctx, *graphID, updates)
				if err != nil {
					return err
				}
				if !*quiet {
					fmt.Printf("applied %d update(s); graph epoch %d\n", ur.Applied, ur.Epoch)
				}
			}
		}
		return runRemote(ctx, rc, *graphID, *algo, *src, *sources, *k, *d, *batch, *quiet)
	}
	if *graphID != "" {
		return fmt.Errorf("-graphid needs -server or -cluster (local graphs are unnamed)")
	}

	g, eng, err := loadInput(ctx, *graphPath, *loadPath)
	if err != nil {
		return err
	}

	// -update mutates the graph before any answering: build (or reuse)
	// the engine, run the updates through a DynamicEngine - the same
	// validate/apply/rebuild path the daemon uses - and continue with
	// the published generation. -save then persists the new epoch.
	if len(updates) > 0 {
		if eng == nil {
			if eng, err = ccsp.NewEngine(ctx, g, opts); err != nil {
				return err
			}
		}
		dyn := ccsp.NewDynamicEngine(eng)
		epoch, err := dyn.Update(ctx, updates)
		dyn.Close()
		if err != nil {
			return err
		}
		eng = dyn.Engine()
		g = eng.Graph()
		if !*quiet {
			fmt.Printf("applied %d update(s); graph epoch %d\n", len(updates), epoch)
		}
	}

	if *batch != "" {
		return runBatchLocal(ctx, g, eng, opts, *batch, *quiet, *savePath)
	}
	// -save needs an engine even when -load didn't provide one; building
	// it up front also moves the preprocessing cost out of the query
	// stats, which is the point of the snapshot.
	if eng == nil && *savePath != "" {
		if eng, err = ccsp.NewEngine(ctx, g, opts); err != nil {
			return err
		}
	}

	if eng != nil {
		// Engine mode answers through the typed query plane: the same
		// api.Request the daemon and client speak, printed identically to
		// the historical per-algorithm output.
		req, err := requestForAlgo(*algo, *src, *sources, *k, *d)
		if err != nil {
			return err
		}
		resp, err := eng.Query(ctx, req)
		if err != nil {
			return err
		}
		printResponse(resp, g.N(), *quiet)
		if !*quiet {
			fmt.Printf("preprocess (not in the stats line above): %s\n", eng.PreprocessStats().Total)
		}
		return saveEngine(eng, *savePath, *quiet)
	}
	return runOneShot(ctx, g, opts, *algo, *src, *sources, *k, *d, *quiet)
}

// requestForAlgo translates the -algo flag set into a typed request: it
// spells the batch line the flags abbreviate and parses that, so the
// binary has one query grammar.
func requestForAlgo(algo string, src int, sources string, k, d int) (api.Request, error) {
	args := map[string][]string{
		"sssp":         {strconv.Itoa(src)},
		"mssp":         {sources},
		"knearest":     {strconv.Itoa(k)},
		"sourcedetect": {sources, strconv.Itoa(d), strconv.Itoa(k)},
	}
	return parseQueryLine(append([]string{algo}, args[algo]...))
}

// runOneShot preserves the historical single-shot semantics: no engine,
// stats include the preprocessing (the one-shot functions fold it in).
func runOneShot(ctx context.Context, g *ccsp.Graph, opts ccsp.Options, algo string, src int, sources string, k, d int, quiet bool) error {
	switch algo {
	case "apsp":
		var res *ccsp.APSPResult
		var err error
		if g.Unweighted() {
			res, err = ccsp.APSPUnweighted(ctx, g, opts)
		} else {
			res, err = ccsp.APSPWeighted(ctx, g, opts)
		}
		if err != nil {
			return err
		}
		if !quiet {
			printMatrix(res.Dist)
		}
		fmt.Println(res.Stats)
	case "apsp3":
		res, err := ccsp.APSPWeighted3(ctx, g, opts)
		if err != nil {
			return err
		}
		if !quiet {
			printMatrix(res.Dist)
		}
		fmt.Println(res.Stats)
	case "sssp":
		res, err := ccsp.SSSP(ctx, g, src, opts)
		if err != nil {
			return err
		}
		if !quiet {
			printVector(res.Dist)
		}
		fmt.Println(res.Stats)
	case "mssp":
		srcList, err := parseSources(sources)
		if err != nil {
			return err
		}
		res, err := ccsp.MSSP(ctx, g, srcList, opts)
		if err != nil {
			return err
		}
		if !quiet {
			printIndexedMatrix(res.Dist) // rows are nodes, columns the sorted sources
		}
		fmt.Println(res.Stats)
	case "diameter":
		res, err := ccsp.Diameter(ctx, g, opts)
		if err != nil {
			return err
		}
		fmt.Printf("diameter estimate: %d\n", res.Estimate)
		fmt.Println(res.Stats)
	case "knearest":
		res, err := ccsp.KNearest(ctx, g, k, opts)
		if err != nil {
			return err
		}
		if !quiet {
			printNeighborRows(res.Neighbors, true)
		}
		fmt.Println(res.Stats)
	case "sourcedetect":
		srcList, err := parseSources(sources)
		if err != nil {
			return err
		}
		res, err := ccsp.SourceDetection(ctx, g, srcList, d, k, opts)
		if err != nil {
			return err
		}
		if !quiet {
			printNeighborRows(res.Detected, false)
		}
		fmt.Println(res.Stats)
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	return nil
}

// remote is what runRemote needs from a remote query plane; both
// *client.Client (one daemon) and *client.GraphView (a cluster scoped
// to one graph) satisfy it.
type remote interface {
	Query(ctx context.Context, req api.Request) (*api.Response, error)
	Batch(ctx context.Context, reqs []api.Request) ([]api.Response, error)
	Health(ctx context.Context) (*api.Health, error)
}

// runRemote answers through a ccspd daemon or cluster: -batch becomes
// one POST /v1/batch (fanned out per shard under -cluster), single
// queries one POST /v1/query.
func runRemote(ctx context.Context, rc remote, graphID, algo string, src int, sources string, k, d int, batch string, quiet bool) error {
	h, err := rc.Health(ctx)
	if err != nil {
		return err
	}
	if batch != "" {
		return runBatchRemote(ctx, rc, graphID, h.Nodes, batch, quiet)
	}
	req, err := requestForAlgo(algo, src, sources, k, d)
	if err != nil {
		return err
	}
	resp, err := rc.Query(ctx, req.On(graphID))
	if err != nil {
		return err
	}
	// Health reports the answering replica's default graph; for named
	// graphs the response's own vector lengths are the honest n.
	n := responseNodes(resp)
	if n == 0 {
		n = h.Nodes
	}
	printResponse(resp, n, quiet)
	return nil
}

// loadInput resolves the graph source: a snapshot (-load, which carries
// its graph and a warm engine) or a graph file (-graph or the positional
// argument).
func loadInput(ctx context.Context, graphPath, loadPath string) (*ccsp.Graph, *ccsp.Engine, error) {
	if loadPath != "" {
		if graphPath != "" || flag.NArg() != 0 {
			return nil, nil, fmt.Errorf("-load restores the snapshot's own graph; drop the graph argument")
		}
		f, err := os.Open(loadPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		eng, err := ccsp.LoadEngine(ctx, f)
		if err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", loadPath, err)
		}
		return eng.Graph(), eng, nil
	}
	switch {
	case graphPath != "" && flag.NArg() == 0:
	case graphPath == "" && flag.NArg() == 1:
		graphPath = flag.Arg(0)
	default:
		return nil, nil, fmt.Errorf("usage: ccsp [flags] <graph-file> (or -graph/-load/-server)")
	}
	g, err := ccsp.ReadGraphFile(graphPath)
	if err != nil {
		return nil, nil, err
	}
	return g, nil, nil
}

// saveEngine writes the engine snapshot to path (no-op for empty path);
// quiet suppresses the confirmation line.
func saveEngine(eng *ccsp.Engine, path string, quiet bool) error {
	if path == "" {
		return nil
	}
	if eng == nil {
		return fmt.Errorf("internal: -save without an engine")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("saved engine snapshot to %s\n", path)
	}
	return nil
}

// updateFlags collects repeated -update "u,v,w" flags (w = -1 deletes
// the edge {u, v}).
type updateFlags []ccsp.EdgeUpdate

func (u *updateFlags) String() string {
	parts := make([]string, len(*u))
	for i, e := range *u {
		parts[i] = fmt.Sprintf("%d,%d,%d", e.U, e.V, e.W)
	}
	return strings.Join(parts, " ")
}

func (u *updateFlags) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) != 3 {
		return fmt.Errorf(`bad update %q (want "u,v,w"; w=-1 deletes)`, v)
	}
	a, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	b, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	w, err3 := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf(`bad update %q (want "u,v,w"; w=-1 deletes)`, v)
	}
	*u = append(*u, ccsp.EdgeUpdate{U: a, V: b, W: w})
	return nil
}

func parseSources(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad source list: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}
