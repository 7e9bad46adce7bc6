package ccsp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Engine is the preprocess-once / query-many entry point. The paper's
// distance pipeline is explicitly two-phase: build a (β, ε)-hopset once
// (§4, Theorem 25), then answer queries with cheap β-hop-limited
// computations (Theorems 3/28/31). An Engine materializes that split:
// each hopset is built once, on the simulator by NewEngine, on the host
// by the first query whose detection needs it (DESIGN.md §16), and
// cached as host-side artifacts (Preprocessed); every query method then
// runs only the query's steps, seeded with the cached artifact, on the
// clique Options.Execution names - simulator runs that pay zero
// hopset-construction rounds, or host kernels that pay no build time.
//
// Determinism contract: an artifact depends only on (graph, hopset
// params), and every collective is deterministic, so Engine queries
// return byte-identical results to the one-shot functions, and the
// engine's preprocessing rounds plus a query's rounds equal the one-shot
// rounds exactly (round accounting is additive across runs). The
// one-shot functions are in fact thin wrappers over a lazy Engine.
//
// Concurrency: the cached artifacts are read-only and each query runs on
// its own clique, so an Engine is safe for concurrent
// queries from multiple goroutines. The engine deep-copies the input
// graph, so mutating the caller's *Graph after NewEngine (via AddEdge)
// cannot corrupt cached artifacts; such mutations are simply invisible
// to the engine. To serve a mutating graph, wrap the engine in a
// DynamicEngine.
//
// Cancellation: every method takes a leading context.Context and unwinds
// at the next simulator barrier when it fires, returning an error that
// wraps ErrCanceled plus the context's own sentinel. Lazy artifact builds
// follow the cache-poisoning rule of DESIGN.md §10: the build runs under
// the context of the query that initiated it, concurrent waiters that
// cancel only abandon their wait, and a build that fails (for any reason,
// including cancellation) is not cached - the next query retries it.
//
// Cost reporting: each query's Stats covers only that query's run;
// PreprocessStats reports the artifact constructions separately. MaxRounds
// (if set) bounds each run individually rather than the one-shot total.
type Engine struct {
	gr   *Graph
	opts Options
	pre  *Preprocessed
	// epoch is the graph version this engine was built at: 0 for a fresh
	// NewEngine, assigned by DynamicEngine rebuilds, persisted by
	// snapshots. Written only before the engine is shared (immutable
	// afterwards, like everything else here).
	epoch uint64
	// exec computes every artifact and query for the public methods
	// (exec.go) on the clique Options.Execution names: the round-accurate
	// simulator or the host kernels.
	exec *backend
}

// Preprocessed is the cache of reusable preprocessing artifacts - per-node
// hopset rows, hitting-set membership and PV/DPV pivots, all host-side
// data - keyed by hopset parameterization. Artifacts are built lazily on
// first need (on the simulator NewEngine and a DynamicEngine rebuild build
// the base one eagerly; on the host both leave it to the first detection
// whose certified searches abort, or to Save) and are immutable
// afterwards. Only completed builds enter arts; an in-flight build is a
// buildCall that concurrent queries wait on (cancelably), and a failed or
// canceled build vanishes without poisoning the cache.
type Preprocessed struct {
	mu       sync.Mutex
	arts     map[artifactKey]*artifactEntry // completed, immutable entries
	inflight map[artifactKey]*buildCall
	order    []artifactKey // completion order, for PreprocessStats
}

// buildCall is one in-flight artifact build. The builder closes done after
// publishing ent/err; waiters select on done against their own context, so
// a waiter canceling never affects the build (the builder's context
// governs it - the DESIGN.md §10 cache-poisoning rule).
type buildCall struct {
	done chan struct{}
	ent  *artifactEntry
	err  error
}

// artVariant selects the graph the hopset is built on.
type artVariant uint8

const (
	// artFull builds on G itself.
	artFull artVariant = iota
	// artLowDegree builds on the §6.3 low-degree subgraph G' (degree <
	// ⌈√n⌉), and additionally captures the degree broadcast the subgraph
	// is derived from.
	artLowDegree
)

func (v artVariant) String() string {
	if v == artLowDegree {
		return "hopset-lowdeg"
	}
	return "hopset"
}

type artifactKey struct {
	variant artVariant
	params  hopset.Params
}

type artifactEntry struct {
	art   *hopset.Artifact
	degs  []int64 // artLowDegree only: broadcast |N(v)| vector, read-only
	stats Stats

	// The query matrices, set by build - or, for a loaded entry, by
	// attach - before the entry is published and immutable afterwards:
	// base is the weight matrix the artifact was built on (G itself, or
	// the low-degree subgraph G' for artLowDegree), the graph of every
	// clique on the entry. On the host gh is G ∪ H (DESIGN.md §13, "One
	// copy of G ∪ H"), row v the hopset row then the base entries it does
	// not dominate (hopset.OverlayRow), and art.Rows[v] is the leading
	// window of gh.Rows[v], so H is held once; the simulator keeps none.
	base *matrix.Mat[semiring.WH]
	gh   *matrix.Mat[semiring.WH]
}

// NewEngine validates the input and readies the engine as a
// DynamicEngine rebuild does (backend.baseEntry). On the simulator that
// is the preprocessing: one run that constructs the base hopset artifact
// (at the Options' ε - the parameterization shared by MSSP and Diameter
// queries). On the host it builds nothing: a detection whose shortest
// paths fit in β hops is served from G alone, and the first one that
// does not builds the base artifact under its own ctx, as Save does
// before it writes (DESIGN.md §16). The APSP queries need a hopset at
// ε/2 (and, for the unweighted algorithm, a second one on the low-degree
// subgraph); the simulator builds it lazily on the first APSP call, the
// host on the first APSP detection that does not fit in the ε/2 β, and
// both cache it like the rest.
//
// Canceling ctx aborts the preprocessing run at its next barrier and
// NewEngine returns an error wrapping ErrCanceled; no engine is returned.
// A ctx already done is refused that way in either mode.
func NewEngine(ctx context.Context, gr *Graph, opts Options) (*Engine, error) {
	e, err := newEngine(gr, opts)
	if err != nil {
		return nil, err
	}
	if _, err := e.exec.baseEntry(ctx); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("ccsp: new engine: %w", err)
	}
	return e, nil
}

// newEngine is NewEngine without the eager preprocessing run; the
// one-shot wrappers use it so that they only ever pay for the artifacts
// their single query needs.
func newEngine(gr *Graph, opts Options) (*Engine, error) {
	opts, err := prepare(gr, opts)
	if err != nil {
		return nil, err
	}
	// Defensive copy: artifacts are memoized against the graph as it was
	// at construction, so a caller appending edges to its *Graph later
	// must not be able to change what cached artifacts (or lazy direct
	// matrices) are derived from.
	return adoptEngine(gr.g.Clone(), opts), nil
}

// adoptEngine is newEngine over a graph nobody else holds - a rebuild's
// patched copy, a decoded snapshot's graph - and prepared opts: the
// engine takes g over as it is, without the defensive copy.
func adoptEngine(g *graph.Graph, opts Options) *Engine {
	gr := &Graph{g: g}
	e := &Engine{
		gr:   gr,
		opts: opts,
		pre: &Preprocessed{
			arts:     make(map[artifactKey]*artifactEntry),
			inflight: make(map[artifactKey]*buildCall),
		},
	}
	// The base hopset serves the direct (1+ε) queries: MSSP (Theorem 3)
	// and both MSSP stages of Diameter (§7.2). The §6 APSP algorithms run
	// their inner MSSP at ε/2 (Lemmas 27/30), over G and, in the second
	// phase of the unweighted one, over the low-degree subgraph G′ (§6.3).
	hp, art := opts.hopsetParams(), e.artifact
	half := apsp.HopsetParams(hp, opts.Epsilon)
	e.exec = &backend{
		g:       g,
		opts:    opts,
		base:    newLazyHopset(artifactKey{artFull, hp}, g.N, art),
		half:    newLazyHopset(artifactKey{artFull, half}, g.N, art),
		halfLow: newLazyHopset(artifactKey{artLowDegree, half}, g.N, art),
	}
	return e
}

// baseKey is the base hopset's key (backend.base).
func (e *Engine) baseKey() artifactKey { return e.exec.base.key }

// apspKey is the key of the ε/2 hopset on G (backend.half).
func (e *Engine) apspKey() artifactKey { return e.exec.half.key }

// apspLowKey is the key of the ε/2 hopset on G′ (backend.halfLow).
func (e *Engine) apspLowKey() artifactKey { return e.exec.halfLow.key }

// artifact returns the cached artifact for key, building it in a
// preprocessing run on first use. Concurrent callers of the same key
// block until the single build completes - cancelably: a waiter whose ctx
// fires abandons the wait (and gets ErrCanceled) while the build, governed
// by the initiating query's ctx, keeps running for everyone else. Failed
// builds - including canceled ones - are not cached: a cancellation can
// never poison the cache. And if the *initiating* query is canceled
// mid-build, waiters whose own contexts are live take over and rebuild
// instead of inheriting the initiator's cancellation (DESIGN.md §10).
func (e *Engine) artifact(ctx context.Context, key artifactKey) (*artifactEntry, error) {
	for {
		e.pre.mu.Lock()
		if ent, ok := e.pre.arts[key]; ok {
			e.pre.mu.Unlock()
			metArtifactHits.Inc()
			return ent, nil
		}
		call, inflight := e.pre.inflight[key]
		if !inflight {
			call = &buildCall{done: make(chan struct{})}
			e.pre.inflight[key] = call
			e.pre.mu.Unlock()
			e.build(ctx, key, call)
			return call.ent, call.err
		}
		e.pre.mu.Unlock()
		select {
		case <-call.done:
			if call.err != nil && errors.Is(call.err, ErrCanceled) && ctx.Err() == nil {
				continue // the initiator was canceled, we were not: rebuild
			}
			return call.ent, call.err
		case <-ctx.Done():
			return nil, fmt.Errorf("ccsp: preprocess (%s): %w", key.variant, ctxErr(ctx))
		}
	}
}

// build runs buildArtifact for the registered in-flight call and always -
// even if buildArtifact panics - unregisters the call, publishes the
// outcome, and closes done. Without the deferred cleanup a panic would
// leave waiters blocked forever on a channel nobody will close and the
// key permanently unbuildable.
func (e *Engine) build(ctx context.Context, key artifactKey, call *buildCall) {
	// Pessimistic default, overwritten on a normal return: a panicking
	// build hands waiters a retryable failure, and the panic itself still
	// propagates on the builder's goroutine.
	call.err = fmt.Errorf("ccsp: preprocess (%s): build aborted by panic", key.variant)
	start := time.Now()
	defer func() {
		e.pre.mu.Lock()
		delete(e.pre.inflight, key)
		if call.err == nil {
			e.pre.arts[key] = call.ent
			if key == e.baseKey() {
				// First, as on an engine whose NewEngine built it.
				e.pre.order = slices.Insert(e.pre.order, 0, key)
			} else {
				e.pre.order = append(e.pre.order, key)
			}
			observeBuild(start)
		}
		e.pre.mu.Unlock()
		close(call.done)
	}()
	call.ent, call.err = e.buildArtifact(ctx, key)
}

// buildArtifact runs the preprocessing for one artifact: the hopset
// construction of §4 (plus, for the low-degree variant, the degree vector
// that defines G'), which the backend hands back as a complete entry for
// build to publish. The artifact is byte-identical whichever clique
// built it, and whether or not it had a sibling; only its stats differ
// (rounds, or wall-clock for the kernels).
func (e *Engine) buildArtifact(ctx context.Context, key artifactKey) (*artifactEntry, error) {
	ent, err := e.exec.build(ctx, key, e.sibling(key))
	if err != nil {
		return nil, wrapRun(fmt.Sprintf("preprocess (%s)", key.variant), err)
	}
	return ent, nil
}

// sibling returns a completed entry of key's variant whose params differ
// from key's only in ε, or nil. Its bunch stage depends on the graph and k
// alone, so key's build can skip it (DESIGN.md §13, "One bunch stage per
// graph"), and key's attach can share its rows. Only completed entries
// count: a build in flight is never waited for, and key then builds cold.
func (e *Engine) sibling(key artifactKey) *artifactEntry {
	e.pre.mu.Lock()
	defer e.pre.mu.Unlock()
	for _, k := range e.pre.order {
		p := k.params
		p.Eps = key.params.Eps
		if k.variant == key.variant && p == key.params {
			return e.pre.arts[k]
		}
	}
	return nil
}

// ArtifactBuild describes one preprocessing run.
type ArtifactBuild struct {
	// Kind is "hopset" (built on G) or "hopset-lowdeg" (built on the
	// low-degree subgraph G' of §6.3).
	Kind string
	// Eps is the hopset stretch parameter ε' the artifact was built with.
	Eps float64
	// Beta is the hop bound β of the artifact's (β, ε')-guarantee.
	Beta int
	// Edges is the number of undirected hopset edges.
	Edges int
	// Stats is the communication cost of the preprocessing run.
	Stats Stats
}

// PreprocessStats reports the preprocessing cost of an Engine, separately
// from per-query Stats. Total merged with the Stats of the queries run so
// far gives exactly what the corresponding one-shot calls would have
// reported.
type PreprocessStats struct {
	// Builds lists each artifact construction: the base hopset first,
	// however late a lazy engine built it, then in completion order.
	Builds []ArtifactBuild
	// Total is the merged cost of all builds.
	Total Stats
}

// PreprocessStats returns the cost of all preprocessing runs completed so
// far (lazy artifacts appear once their first triggering query arrives).
func (e *Engine) PreprocessStats() PreprocessStats {
	e.pre.mu.Lock()
	defer e.pre.mu.Unlock()
	ps := PreprocessStats{Total: Stats{Nodes: e.gr.N()}}
	for _, key := range e.pre.order {
		ent := e.pre.arts[key]
		ps.Builds = append(ps.Builds, ArtifactBuild{
			Kind:  key.variant.String(),
			Eps:   key.params.Eps,
			Beta:  ent.art.Beta,
			Edges: ent.art.Edges(),
			Stats: ent.stats,
		})
		ps.Total = ps.Total.Merge(ent.stats)
	}
	return ps
}

// Graph returns the engine's (immutable) input graph. It is the
// engine's private deep copy: mutating it corrupts this engine's
// cached artifacts, so treat it as read-only.
func (e *Engine) Graph() *Graph { return e.gr }

// Epoch returns the graph version this engine was built at: 0 for an
// engine built directly with NewEngine, the generation number assigned
// by the owning DynamicEngine after a rebuild, or the persisted epoch
// for an engine restored with LoadEngine.
func (e *Engine) Epoch() uint64 { return e.epoch }

// Options returns the normalized options the engine runs with.
func (e *Engine) Options() Options { return e.opts }

// normalizeSources validates and deduplicates a source list, returning
// the membership vector (sourceSet's) and the ascending source list.
func normalizeSources(n int, sources []int) (inS []bool, srcList []int, err error) {
	inS, err = sourceSet(n, sources)
	if err != nil {
		return nil, nil, err
	}
	srcList = make([]int, 0, len(sources))
	for v := 0; v < n; v++ {
		if inS[v] {
			srcList = append(srcList, v)
		}
	}
	if len(srcList) == 0 {
		memberships.Put(inS)
		return nil, nil, fmt.Errorf("%w: empty source set", ErrInvalidSource)
	}
	return inS, srcList, nil
}

// memberships recycles source membership vectors. Every one is dead once
// the backend it was handed to returns - no clique keeps it, and a
// simulated run returns only after every node has exited - so the engine
// method that took it puts it back right there.
var memberships pool.Scratch[bool]

// sourceSet validates a source list into its membership vector, taken from
// memberships.
func sourceSet(n int, sources []int) ([]bool, error) {
	inS := memberships.Get(n)
	clear(inS)
	for _, s := range sources {
		if s < 0 || s >= n {
			memberships.Put(inS)
			return nil, fmt.Errorf("%w: source %d out of range [0,%d)", ErrInvalidSource, s, n)
		}
		inS[s] = true
	}
	return inS, nil
}

// MSSP answers a (1+ε)-approximate multi-source query (Theorem 3) from
// the cached hopset: one β-hop source detection on G ∪ H, no hopset
// construction - but for the first detection on a host engine that does
// not certify from G alone, which builds the base hopset (DESIGN.md §16).
// Safe to call concurrently; canceling ctx aborts the query run at its
// next barrier.
func (e *Engine) MSSP(ctx context.Context, sources []int) (*MSSPResult, error) {
	res, err := e.mssp(ctx, sources, nil)
	if err != nil {
		return nil, err
	}
	res.Stats = res.Stats.leave()
	return res, nil
}

// mssp is MSSP for Plan.runLent, lent into l unless l is nil: the result
// is l's, and l records its plane and row headers to hand back (rowsOver;
// DESIGN.md §13, "the result path"). Its Stats have not left the engine.
func (e *Engine) mssp(ctx context.Context, sources []int, l *lent) (*MSSPResult, error) {
	inS, srcList, err := normalizeSources(e.gr.N(), sources)
	if err != nil {
		return nil, err
	}
	plane, stats, err := e.detect(ctx, inS)
	if err != nil {
		return nil, err
	}
	res := l.msspResult()
	res.Sources, res.Dist, res.Stats = srcList, l.rowsOver(plane, len(srcList)), stats
	return res, nil
}

// distance is MSSP from the one source from, read at the one node to
// (Theorem 3 with |S| = 1): the cell d̃(to, from), Unreachable if from does
// not reach to, with the run's Stats. Nothing keeps the plane, so it goes
// back to the detection kernel's pool here, before anyone else sees it
// (DESIGN.md §13, "a point answer reads one cell"). to must be in range;
// Engine.Plan checks it.
func (e *Engine) distance(ctx context.Context, from, to int) (int64, Stats, error) {
	inS, err := sourceSet(e.gr.N(), []int{from})
	if err != nil {
		return 0, Stats{}, err
	}
	plane, stats, err := e.detect(ctx, inS)
	if err != nil {
		return 0, Stats{}, err
	}
	d := plane[to]
	disttools.ReleasePlane(plane)
	return d, stats, nil
}

// detect runs the β-hop detection from inS on the base hopset and returns
// the backend's flat n×|S| plane, which the caller owns. inS goes back to
// memberships on return.
func (e *Engine) detect(ctx context.Context, inS []bool) ([]int64, Stats, error) {
	defer memberships.Put(inS)
	plane, stats, err := e.exec.mssp(ctx, inS)
	if err != nil {
		return nil, Stats{}, wrapRun("MSSP", err)
	}
	return plane, stats, nil
}

// rowsOver cuts a row-major plane of q-cell rows into row headers over the
// plane itself. Each row is capacity-clipped, so an append to one cannot
// write into the next. Lent (l not nil), the headers come from rowHeaders
// and l records them and the plane, for its release to hand back; owned,
// they are allocated to size.
func (l *lent) rowsOver(flat []int64, q int) [][]int64 {
	rows := headers(&rowHeaders, len(flat)/q, l != nil)
	for v := range rows {
		rows[v] = flat[v*q : (v+1)*q : (v+1)*q]
	}
	if l != nil {
		l.rows, l.plane = rows, flat
	}
	return rows
}

// rowHeaders and listHeaders recycle the headers of lent answers: the row
// headers of an mssp or apsp answer and the list headers of a knearest or
// source_detection answer.
var (
	rowHeaders  pool.Scratch[[]int64]
	listHeaders pool.Scratch[[]Neighbor]
)

// headers returns n headers for an answer: taken from p when it is to be
// lent, allocated to exactly n when it is to be owned.
func headers[T any](p *pool.Scratch[[]T], n int, lend bool) [][]T {
	if lend {
		return p.Get(n)
	}
	return make([][]T, n)
}

// giveHeaders hands a lent answer's headers back to p, cleared first so
// that a pooled header keeps no buffer it was cut over alive.
func giveHeaders[T any](p *pool.Scratch[[]T], h [][]T) {
	clear(h)
	p.Put(h)
}

// SSSP answers an exact single-source query (Theorem 33). The shortcut
// algorithm does not use a hopset, so the query needs no preprocessing
// artifacts at all.
func (e *Engine) SSSP(ctx context.Context, source int) (*SSSPResult, error) {
	if n := e.gr.N(); source < 0 || source >= n {
		return nil, fmt.Errorf("%w: source %d out of range [0,%d)", ErrInvalidSource, source, n)
	}
	dist, iters, stats, err := e.exec.sssp(ctx, source)
	if err != nil {
		return nil, wrapRun("SSSP", err)
	}
	return &SSSPResult{Source: source, Dist: dist, Iterations: iters, Stats: stats.leave()}, nil
}

// APSP answers an all-pairs query with the strongest guarantee for the
// input: the (2+ε) unweighted algorithm (Theorem 31) when all edges have
// weight 1, the (2+ε, (1+ε)W) weighted algorithm (Theorem 28) otherwise.
func (e *Engine) APSP(ctx context.Context) (*APSPResult, error) {
	return e.apspByVariant(ctx, e.ResolveAPSPVariant(api.APSPAuto))
}

// APSPWeighted answers a (2+ε, (1+ε)W)-approximate all-pairs query
// (Theorem 28) from the ε/2 hopset, which the simulator builds before the
// first such query runs and the host only when one of its detections does
// not fit in the ε/2 β (DESIGN.md §13, "When H exists").
func (e *Engine) APSPWeighted(ctx context.Context) (*APSPResult, error) {
	return e.apspByVariant(ctx, api.APSPWeighted)
}

// APSPWeighted3 answers the simpler (3+ε)-approximate weighted all-pairs
// query of §6.1; it shares the ε/2 hopset artifact with APSPWeighted,
// built as APSPWeighted builds it.
func (e *Engine) APSPWeighted3(ctx context.Context) (*APSPResult, error) {
	return e.apspByVariant(ctx, api.APSPWeighted3)
}

// APSPUnweighted answers a (2+ε)-approximate all-pairs query on an
// unweighted graph (Theorem 31). It uses two cached artifacts: the ε/2
// hopset on G and the ε/2 hopset on the low-degree subgraph G', each built
// as APSPWeighted builds its one (on the host, only when a detection over
// that graph needs it).
func (e *Engine) APSPUnweighted(ctx context.Context) (*APSPResult, error) {
	return e.apspByVariant(ctx, api.APSPUnweighted)
}

// apspByVariant answers one concrete (non-auto) APSP variant over the ε/2
// hopset on G, plus - for the unweighted algorithm only - the one on G'.
func (e *Engine) apspByVariant(ctx context.Context, v api.APSPVariant) (*APSPResult, error) {
	res, err := e.apsp(ctx, v, nil)
	if err != nil {
		return nil, err
	}
	res.Stats = res.Stats.leave()
	return res, nil
}

// apsp is apspByVariant for Plan.runLent, its n×n table and row headers
// lent into l as mssp's plane and headers are.
func (e *Engine) apsp(ctx context.Context, v api.APSPVariant, l *lent) (*APSPResult, error) {
	if v != api.APSPWeighted && v != api.APSPWeighted3 && v != api.APSPUnweighted {
		return nil, fmt.Errorf("%w: unknown apsp variant %q", api.ErrMalformed, v)
	}
	table, stats, err := e.exec.apsp(ctx, v)
	if err != nil {
		return nil, wrapRun(string(v)+" APSP", err)
	}
	return &APSPResult{Dist: l.rowsOver(table, e.gr.N()), Stats: stats}, nil
}

// Diameter answers a near-3/2 diameter query (§7.2) from the cached base
// hopset: both MSSP stages reuse it.
func (e *Engine) Diameter(ctx context.Context) (*DiameterResult, error) {
	est, stats, err := e.exec.diameter(ctx)
	if err != nil {
		return nil, wrapRun("diameter", err)
	}
	return &DiameterResult{Estimate: est, Stats: stats.leave()}, nil
}

// KNearest answers a k-nearest query (Theorem 18 over the
// witness-tracking semiring). It needs no preprocessing artifacts.
func (e *Engine) KNearest(ctx context.Context, k int) (*KNearestResult, error) {
	res, err := e.knearest(ctx, k, nil)
	if err != nil {
		return nil, err
	}
	res.Stats = res.Stats.leave()
	return res, nil
}

// knearest is KNearest for Plan.runLent, its lists lent into l as mssp's
// rows are (neighborLists). The kernel's rows go back to the kernel as soon
// as the lists hold their copy.
func (e *Engine) knearest(ctx context.Context, k int, l *lent) (*KNearestResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k must be positive, got %d", ErrInvalidOption, k)
	}
	rows, done, stats, err := e.exec.knearest(ctx, k)
	if err != nil {
		return nil, wrapRun("k-nearest", err)
	}
	out := neighborLists(rows, l, func(en matrix.Entry[semiring.WHF]) Neighbor {
		return Neighbor{Node: int(en.Col), Dist: en.Val.W, Hops: int(en.Val.H), FirstHop: int(en.Val.FH)}
	})
	done()
	for _, nb := range out {
		slices.SortFunc(nb, nearestFirst)
	}
	return &KNearestResult{Neighbors: out, Stats: stats}, nil
}

// nearestFirst orders a k-nearest list by (Dist, Hops, Node).
func nearestFirst(a, b Neighbor) int {
	return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Hops, b.Hops), cmp.Compare(a.Node, b.Node))
}

// neighborBackings recycles the backing arrays of neighbor-list answers
// that were lent and given back (Plan.Answer's release).
var neighborBackings pool.Scratch[Neighbor]

// neighborLists shapes sparse result rows into per-node neighbor lists in
// row order, all cut from one backing array sized from the row lengths.
// Each list is capacity-clipped (an append to one cannot write into the
// next), and an empty one stays non-nil so it still encodes as []. Lent (l
// not nil), the backing comes from neighborBackings and the list headers
// from listHeaders, and l records both for its release to hand back;
// owned, both are allocated to size.
func neighborLists[E any](rows *matrix.Mat[E], l *lent, of func(matrix.Entry[E]) Neighbor) [][]Neighbor {
	total := 0
	for _, row := range rows.Rows {
		total += len(row)
	}
	var backing []Neighbor
	if l != nil {
		backing = neighborBackings.Get(total)[:0]
	}
	if backing == nil {
		backing = make([]Neighbor, 0, total)
	}
	out := headers(&listHeaders, len(rows.Rows), l != nil)
	for v, row := range rows.Rows {
		start := len(backing)
		for _, en := range row {
			backing = append(backing, of(en))
		}
		out[v] = backing[start:len(backing):len(backing)]
	}
	if l != nil {
		l.lists, l.backing = out, backing
	}
	return out
}

// SourceDetection answers an (S, d, k)-source detection query
// (Theorem 19). It needs no preprocessing artifacts. A hop bound d larger
// than n is clamped to n: simple paths have at most n-1 hops, so the
// answers are identical and the run does not pay for dead iterations (nor
// can a wire-supplied d drive unbounded work).
func (e *Engine) SourceDetection(ctx context.Context, sources []int, d, k int) (*SourceDetectionResult, error) {
	res, err := e.sourceDetection(ctx, sources, d, k, nil)
	if err != nil {
		return nil, err
	}
	res.Stats = res.Stats.leave()
	return res, nil
}

// sourceDetection is SourceDetection for Plan.runLent, its lists lent into
// l as knearest's are.
func (e *Engine) sourceDetection(ctx context.Context, sources []int, d, k int, l *lent) (*SourceDetectionResult, error) {
	if d < 1 || k < 1 {
		return nil, fmt.Errorf("%w: d and k must be positive (d=%d, k=%d)", ErrInvalidOption, d, k)
	}
	n := e.gr.N()
	inS, err := sourceSet(n, sources)
	if err != nil {
		return nil, err
	}
	rows, done, stats, err := e.exec.sourceDetect(ctx, inS, min(d, n), k)
	memberships.Put(inS)
	if err != nil {
		return nil, wrapRun("source detection", err)
	}
	out := neighborLists(rows, l, func(en matrix.Entry[semiring.WH]) Neighbor {
		return Neighbor{Node: int(en.Col), Dist: en.Val.W, Hops: int(en.Val.H), FirstHop: -1}
	})
	done()
	return &SourceDetectionResult{Detected: out, Stats: stats}, nil
}

// oneShot runs a single query on a fresh lazy Engine and has fold add the
// preprocessing cost into the result's stats, preserving the historical
// one-shot accounting (preprocess + query = the single-run totals).
func oneShot[R any](ctx context.Context, gr *Graph, opts Options, query func(*Engine, context.Context) (R, error), fold func(res R, pre Stats)) (R, error) {
	var zero R
	eng, err := newEngine(gr, opts)
	if err != nil {
		return zero, err
	}
	res, err := query(eng, ctx)
	if err != nil {
		return zero, err
	}
	fold(res, eng.PreprocessStats().Total)
	return res, nil
}
