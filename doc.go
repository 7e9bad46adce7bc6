// Package ccsp is a Go implementation of "Fast Approximate Shortest Paths
// in the Congested Clique" (Censor-Hillel, Dory, Korhonen, Leitersdorf,
// PODC 2019): deterministic distance algorithms for the Congested Clique
// model, executed on a faithful round-accounting simulator.
//
// The package offers:
//
//   - APSPUnweighted: (2+ε)-approximate all-pairs shortest paths on
//     unweighted graphs in O(log²n/ε) rounds (Theorem 31);
//   - APSPWeighted: (2+ε, (1+ε)W)-approximate weighted APSP (Theorem 28)
//     and APSPWeighted3, the simpler (3+ε)-approximation (§6.1);
//   - MSSP: (1+ε)-approximate multi-source shortest paths, polylogarithmic
//     for up to ~√n sources (Theorem 3);
//   - SSSP: exact single-source shortest paths in O~(n^{1/6}) rounds
//     (Theorem 33);
//   - Diameter: a near-3/2 diameter approximation (§7.2);
//   - KNearest: exact distances and routing witnesses to the k closest
//     nodes (Theorem 18), and SourceDetection (Theorem 19).
//
// Every result carries the Stats of the simulated run - rounds (split into
// simulated and primitive-charged), messages and words - so the paper's
// round bounds can be measured directly; see DESIGN.md and EXPERIMENTS.md.
// The simulator executes each collective in shards on the row pass the
// direct kernels use (Options.Workers, DESIGN.md §5); worker count never
// changes results or round statistics, only wall-clock time.
//
// # Quick start
//
//	g := ccsp.NewGraph(64)
//	g.MustAddEdge(0, 1, 1) // ... build an undirected weighted graph
//	res, err := ccsp.APSPWeighted(context.Background(), g, ccsp.Options{Epsilon: 0.5})
//	if err != nil { ... }
//	fmt.Println(res.Distance(0, 1), res.Stats.TotalRounds)
//
// # Cancellation and errors
//
// Every entry point takes a leading context.Context, checked at every
// simulator barrier: canceling it (or letting its deadline expire) aborts
// the run cleanly - including a preprocessing build in flight - and the
// returned error wraps ErrCanceled plus the context's own sentinel.
// Errors are typed (ErrCanceled, ErrRoundLimit, ErrInvalidSource,
// ErrInvalidOption) and matched with errors.Is; DESIGN.md §10 documents
// the model.
//
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	res, err := ccsp.MSSP(ctx, g, sources, ccsp.Options{})
//	if errors.Is(err, ccsp.ErrCanceled) { ... } // deadline hit mid-run
//
// # Serving many queries
//
// The pipeline is two-phase - build a (β, ε)-hopset once (§4), answer
// queries with cheap β-hop computations - and Engine exposes that split:
// NewEngine preprocesses the graph once, then MSSP/SSSP/APSP/Diameter
// queries run at query-only cost, safe for concurrent use. Engine
// queries return byte-identical results to the one-shot functions, and
// PreprocessStats + per-query Stats sum to exactly the one-shot totals
// (the one-shot functions are thin wrappers over an Engine); DESIGN.md
// §8 documents the contract.
//
//	eng, err := ccsp.NewEngine(ctx, g, ccsp.Options{Epsilon: 0.5})
//	if err != nil { ... }
//	res, err := eng.MSSP(ctx, []int{3, 7, 11}) // no hopset rebuild
//
// # The query plane
//
// Engine.Query answers one typed api.Request (the tagged union the
// serving daemon and the client package speak), and Engine.Batch answers
// many at once: equivalent requests (Engine.Plan) share one run, distinct
// requests run concurrently, shared preprocessing artifacts build once,
// and failures stay per-request. The api package defines the wire schema
// and one constructor per request kind; the client package answers the
// same requests over HTTP. DESIGN.md §11 documents the plane.
//
//	resps, err := eng.Batch(ctx, []api.Request{api.MSSP(3, 7), api.Diameter()})
package ccsp
