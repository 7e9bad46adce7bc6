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
// Every mode answers the same way: the flags resolve to one querier -
// the Query/Batch pair *ccsp.Engine (-load, -save, -update, -batch),
// *client.Client (-server) and *client.Cluster (-cluster) share - and
// -algo, or each batch line, becomes one typed api.Request asked through
// it and printed by one function, so answer rows diff line for line
// across modes. A bare "ccsp -algo X graph" keeps no engine: the one-shot
// ccsp.Query builds only what X needs and folds that preprocessing into
// the stats line - the same wire-form line every other mode prints, so
// under -exec direct it reads "rounds=0 (sim=0 charged=0) msgs=0 words=0".
//
// With -save or -load, queries run through a persistent ccsp.Engine
// snapshot (the format cmd/ccspd serves from): -save builds the engine
// and writes it (atomically) after answering, -load restores one and pays
// no preprocessing; the reported stats then cover the query run only, with
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
// batch file ("-" for stdin) through Batch, paying the hopset
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
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		switch {
		case errors.Is(err, errBadFlags):
			os.Exit(2) // the flag set has already printed the message and usage
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

var errBadFlags = errors.New("bad flags")

// querier is the one way to ask: *ccsp.Engine, *client.Client and
// *client.Cluster all answer typed requests through this pair.
type querier interface {
	Query(ctx context.Context, req api.Request) (*api.Response, error)
	Batch(ctx context.Context, reqs []api.Request) ([]api.Response, error)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccsp", flag.ContinueOnError)
	var (
		algo       = fs.String("algo", "apsp", "apsp | apsp3 | sssp | mssp | diameter | knearest | sourcedetect")
		eps        = fs.Float64("eps", 0.5, "approximation parameter ε")
		src        = fs.Int("src", 0, "source for sssp")
		sources    = fs.String("sources", "0", "comma-separated sources for mssp/sourcedetect")
		k          = fs.Int("k", 4, "k for knearest/sourcedetect")
		d          = fs.Int("d", 4, "hop bound d for sourcedetect")
		batch      = fs.String("batch", "", "batch query file ('-' for stdin): preprocess once, answer every line")
		quiet      = fs.Bool("quiet", false, "print only the stats line")
		graphPath  = fs.String("graph", "", "graph file (edge list or DIMACS .gr); alternative to the positional argument")
		savePath   = fs.String("save", "", "write the preprocessed engine snapshot here after answering")
		loadPath   = fs.String("load", "", "restore a preprocessed engine snapshot instead of building one")
		serverURL  = fs.String("server", "", "base URL of a running ccspd daemon: query it instead of simulating locally")
		clusterCSV = fs.String("cluster", "", "comma-separated ccspd replica base URLs: route queries through the consistent-hash ring")
		graphID    = fs.String("graphid", "", "graph ID to query on a multi-graph daemon or cluster (empty = the default graph)")
		timeout    = fs.Duration("timeout", 0, "abort preprocessing+queries after this long (0 = no limit)")
		execMode   = fs.String("exec", "simulated", "execution mode: simulated (round accounting) | direct (kernel, identical answers, no rounds)")
	)
	var updates updateFlags
	fs.Var(&updates, "update", `edge update "u,v,w" applied before answering; w=-1 deletes {u,v} (repeatable)`)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errBadFlags
	}
	exec, err := ccsp.ParseExecution(*execMode)
	if err != nil {
		return err
	}
	opts := ccsp.Options{Epsilon: *eps, Execution: exec}

	// What is asked parses before anything expensive runs: -algo and its
	// flags, or every line of the -batch file.
	var (
		req     api.Request
		queries []batchQuery
	)
	if *batch != "" {
		queries, err = parseBatchFile(*batch)
	} else {
		req, err = requestForAlgo(*algo, *src, *sources, *k, *d)
	}
	if err != nil {
		return err
	}

	// Ctrl-C (or -timeout) cancels the context; the simulator unwinds at
	// its next barrier and the run exits cleanly instead of burning CPU.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Resolve the flags to the one querier that answers (nil only for a
	// single local query with no engine to keep) and the node count to
	// print when an answer carries no per-node vector.
	var (
		q   querier
		n   int
		g   *ccsp.Graph
		eng *ccsp.Engine // the local engine behind q: its ledger prints, -save persists it
	)
	if *serverURL != "" || *clusterCSV != "" {
		if *graphPath != "" || *loadPath != "" || *savePath != "" || fs.NArg() != 0 {
			return fmt.Errorf("-server/-cluster query remote daemons; drop -graph/-load/-save and the graph argument")
		}
		if *serverURL != "" && *clusterCSV != "" {
			return fmt.Errorf("use -server (one daemon) or -cluster (a replica set), not both")
		}
		var h *api.Health
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
			if len(updates) > 0 {
				return fmt.Errorf("-update needs -server (send updates to the replica owning the graph directly)")
			}
			cl := client.NewCluster(members)
			defer cl.Close()
			q = cl
			h, err = cl.Health(ctx, *graphID)
		} else {
			c := client.New(*serverURL)
			q = c
			if len(updates) > 0 {
				ur, err := c.Update(ctx, *graphID, updates)
				if err != nil {
					return err
				}
				if !*quiet {
					fmt.Fprintf(stdout, "applied %d update(s); graph epoch %d\n", ur.Applied, ur.Epoch)
				}
			}
			h, err = c.Health(ctx)
		}
		if err != nil {
			return err
		}
		n = h.Nodes
	} else {
		if *graphID != "" {
			return fmt.Errorf("-graphid needs -server or -cluster (local graphs are unnamed)")
		}
		if g, eng, err = loadInput(ctx, *graphPath, *loadPath, fs.Args()); err != nil {
			return err
		}
		// -update, -batch and -save need an engine even when -load didn't
		// provide one; building it up front also moves the preprocessing
		// cost out of the query stats, which is the point of the snapshot.
		if eng == nil && (len(updates) > 0 || *batch != "" || *savePath != "") {
			if eng, err = ccsp.NewEngine(ctx, g, opts); err != nil {
				return err
			}
		}
		// -update mutates the graph before any answering: run the updates
		// through a DynamicEngine - the same validate/apply/rebuild path
		// the daemon uses - and continue with the published generation.
		// -save then persists the new epoch.
		if len(updates) > 0 {
			dyn := ccsp.NewDynamicEngine(eng)
			epoch, err := dyn.Update(ctx, updates)
			dyn.Close()
			if err != nil {
				return err
			}
			eng = dyn.Engine()
			g = eng.Graph()
			if !*quiet {
				fmt.Fprintf(stdout, "applied %d update(s); graph epoch %d\n", len(updates), epoch)
			}
		}
		if eng != nil {
			q = eng
		}
		n = g.N()
	}

	// One batch function and one single-query function over q; what is
	// local-only - the preprocessing ledger, the amortization summary,
	// -save - stays here, around the shared call.
	if *batch != "" {
		if eng != nil {
			pre := eng.PreprocessStats()
			fmt.Fprintf(stdout, "preprocess: %s\n", pre.Total)
			for _, b := range pre.Builds {
				fmt.Fprintf(stdout, "  %s eps=%g beta=%d edges=%d: %s\n", b.Kind, b.Eps, b.Beta, b.Edges, b.Stats)
			}
		}
		queryRounds, err := answerBatch(ctx, stdout, q, *batch, queries, *graphID, n, *quiet)
		if err != nil {
			return err
		}
		if eng == nil {
			fmt.Fprintf(stdout, "batch: %d queries, %d query rounds (preprocessing amortized server-side)\n",
				len(queries), queryRounds)
			return nil
		}
		// Total rounds actually paid vs what one-shot calls would have cost.
		pre := eng.PreprocessStats() // lazy artifacts may have been added
		fmt.Fprintf(stdout, "batch: %d queries, %d preprocessing rounds (%d builds) + %d query rounds = %d total\n",
			len(queries), pre.Total.TotalRounds, len(pre.Builds), queryRounds, pre.Total.TotalRounds+queryRounds)
		return saveEngine(stdout, eng, *savePath, false)
	}
	// With no engine to keep, a single local query is asked one-shot:
	// ccsp.Query builds only what the request needs on g and folds that
	// preprocessing into the stats line.
	ask := func(ctx context.Context, req api.Request) (*api.Response, error) {
		return ccsp.Query(ctx, g, req, opts)
	}
	if q != nil {
		ask = q.Query
	}
	if err := answerOne(ctx, stdout, ask, req.On(*graphID), n, *quiet); err != nil {
		return err
	}
	if eng == nil {
		return nil
	}
	if !*quiet {
		fmt.Fprintf(stdout, "preprocess (not in the stats line above): %s\n", eng.PreprocessStats().Total)
	}
	return saveEngine(stdout, eng, *savePath, *quiet)
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

// answerOne asks one request and prints the answer.
func answerOne(ctx context.Context, w io.Writer, ask func(context.Context, api.Request) (*api.Response, error), req api.Request, n int, quiet bool) error {
	resp, err := ask(ctx, req)
	if err != nil {
		return err
	}
	// A daemon's /healthz reports its default graph; for named graphs the
	// response's own vector lengths are the honest n.
	printResponse(w, resp, responseNodes(resp, n), quiet)
	return nil
}

// loadInput resolves the graph source: a snapshot (-load, which carries
// its graph and a warm engine) or a graph file (-graph or the one
// positional argument).
func loadInput(ctx context.Context, graphPath, loadPath string, args []string) (*ccsp.Graph, *ccsp.Engine, error) {
	if loadPath != "" {
		if graphPath != "" || len(args) != 0 {
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
	case graphPath != "" && len(args) == 0:
	case graphPath == "" && len(args) == 1:
		graphPath = args[0]
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
func saveEngine(w io.Writer, eng *ccsp.Engine, path string, quiet bool) error {
	if path == "" {
		return nil
	}
	if err := eng.SaveFile(path); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(w, "saved engine snapshot to %s\n", path)
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
