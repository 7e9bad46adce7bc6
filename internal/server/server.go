// Package server implements the HTTP/JSON serving layer of cmd/ccspd: a
// set of handlers over one or more shared, concurrency-safe
// ccsp.Engines. This is the process boundary the ROADMAP's serving goal
// needs - each engine preprocesses (or loads a snapshot) once, then
// every HTTP request is a cheap query-only run, optionally
// short-circuited by a small LRU cache of repeated queries.
//
// A server holds a registry of ccsp.DynamicEngines keyed by graph ID:
// the default graph (the empty ID, the only one a pre-cluster daemon
// had) plus any number of named graphs. Every served graph accepts
// POST /v1/update; an engine handed over as Config.Engine is wrapped.
// Requests select a graph with the api.Request Graph field; requests
// without one hit the default engine, byte-for-byte compatible with the
// single-graph wire protocol. A request naming a graph the registry
// does not hold gets a typed 404 (api.CodeUnknownGraph) - in a cluster,
// that means the ring routed it to the wrong replica.
//
// The serving surface is the typed query plane of the api package
// (DESIGN.md §11, §14). Primary endpoints (JSON bodies; distances use
// -1 for unreachable pairs):
//
//	POST /v1/query    one api.Request (tagged union over all 7 query
//	                  algorithms), answered with an api.Response
//	POST /v1/batch    api.BatchRequest: many requests, one engine batch
//	                  per target graph with per-request errors and
//	                  shared deduped runs
//	POST /v1/update   api.UpdateRequest: one batch of edge mutations,
//	                  applied atomically by a background rebuild + hot
//	                  engine swap (update.go)
//	GET  /v1/epoch    the serving epoch of one graph (?graph=ID), for
//	                  freshness assertions and async-update polling
//	GET  /healthz     liveness + default graph shape (503 until ready)
//	GET  /readyz      readiness: 200 + the served graph list only once
//	                  every snapshot is loaded/preprocessed (the cluster
//	                  prober consumes this)
//	GET  /v1/stats    server, cache, graph and preprocessing stats
//	GET  /metrics     Prometheus text exposition (internal/telemetry)
//
// Every query runs under the request context (plus the per-request
// Config.Timeout): a fired deadline or a dropped client connection stops
// the underlying simulation at its next barrier - the CPU-bound run
// actually halts, it is not abandoned to burn in the background.
// Engine-bound work additionally passes admission control (a bounded
// in-flight limit plus a short wait queue, see admission.go): a
// saturated daemon sheds the excess with fast typed 503s instead of
// letting every request's latency collapse together. Errors map to
// wire codes and statuses through the one table in the root package's
// errors.go (ccsp.APIError, ccsp.HTTPStatus), first match wins:
//
//	context.DeadlineExceeded   504 Gateway Timeout
//	ccsp.ErrCanceled           499 (client closed request)
//	ccsp.ErrRoundLimit         503 Service Unavailable
//	ccsp.ErrInvalidSource      422 Unprocessable Entity
//	ccsp.ErrInvalidOption      422 Unprocessable Entity
//	ccsp.ErrUnknownGraph       404 Not Found
//	ccsp.ErrOverloaded         503 Service Unavailable + Retry-After (shed)
//	ccsp.ErrUnavailable        503 Service Unavailable (still loading)
//	api.ErrMalformed           400 Bad Request
//	anything else              400 Bad Request
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// Engine serves requests without a graph ID (the default graph).
	// The server wraps it in a ccsp.DynamicEngine, so it accepts
	// updates like any graph registered with AddDynamicGraph. Required
	// unless Deferred is set.
	Engine *ccsp.Engine
	// Deferred starts the server with no engines and not ready: the
	// daemon binds its listener first, registers engines with
	// AddDynamicGraph as snapshots load, then flips SetReady. Until then
	// /readyz (and every query) answers 503, which is how a cluster
	// prober distinguishes "replica restarting" from "replica gone".
	Deferred bool
	// Timeout bounds each request's query (a /v1/batch body counts as one
	// request: the timeout covers the whole batch); 0 means no timeout.
	Timeout time.Duration
	// CacheSize is the LRU capacity in responses; 0 picks the default
	// (128), negative disables caching.
	CacheSize int
	// MaxInFlight bounds queries executing on the engines concurrently
	// (admission control); 0 picks the default (4 × GOMAXPROCS),
	// negative disables admission control entirely. Cache hits are
	// always admitted: the bound protects simulator and kernel work,
	// not the LRU.
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot beyond
	// MaxInFlight; a query arriving with the queue full is shed
	// immediately with a typed 503 (api.CodeOverloaded + Retry-After).
	// 0 picks the default (= the resolved MaxInFlight); negative
	// disables queueing, so full slots shed instantly.
	MaxQueue int
}

// Server holds the engine registry and per-process serving state.
type Server struct {
	mu      sync.RWMutex
	engines map[string]*ccsp.DynamicEngine // key "" = default graph

	ready    atomic.Bool
	timeout  time.Duration
	cache    *lru
	cacheCap int
	start    time.Time
	adm      *admission // nil = admission control disabled

	// Serving metrics, owned by the per-server telemetry registry (see
	// metrics.go); /v1/stats reads through the same values /metrics
	// renders, so the two views can never drift.
	reg       *telemetry.Registry
	requests  *telemetry.Counter // every HTTP request hitting a handler
	errors    *telemetry.Counter // failed queries (non-timeout)
	timeouts  *telemetry.Counter // queries killed by the server timeout
	queries   *telemetry.Counter // successfully answered query positions
	batches   *telemetry.Counter // /v1/batch bodies served
	batchReqs *telemetry.Counter // total positions across those bodies
	batchRuns *telemetry.Counter // deduped engine runs those positions cost
	shed      *telemetry.Counter // queries rejected by admission control
	updates   *telemetry.Counter // update batches accepted by /v1/update
	inflight  *telemetry.Gauge   // queries/batches currently executing
}

// New returns a Server over the configured engines.
func New(cfg Config) (*Server, error) {
	size := cfg.CacheSize
	if size == 0 {
		size = 128
	}
	if size < 0 {
		size = 0
	}
	s := &Server{
		engines:  make(map[string]*ccsp.DynamicEngine),
		timeout:  cfg.Timeout,
		cache:    newLRU(size),
		cacheCap: size,
		start:    time.Now(),
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
	}
	s.initMetrics()
	if cfg.Engine == nil {
		if !cfg.Deferred {
			return nil, fmt.Errorf("server: no engine (set Engine or Deferred)")
		}
		return s, nil // not ready until SetReady
	}
	// Wrapping starts no goroutine: the coordinator spawns its builder
	// on the first staged update.
	if err := s.AddDynamicGraph("", ccsp.NewDynamicEngine(cfg.Engine)); err != nil {
		return nil, err
	}
	s.ready.Store(true)
	return s, nil
}

// AddDynamicGraph registers dyn under the graph ID name ("" = default
// graph) with its per-graph epoch gauge: queries resolve the wrapper's
// current engine per request, and POST /v1/update routes its mutations
// here. Safe to call while serving (a Deferred daemon registers
// snapshots as they load); duplicate and malformed IDs are rejected.
func (s *Server) AddDynamicGraph(name string, dyn *ccsp.DynamicEngine) error {
	if dyn == nil {
		return fmt.Errorf("server: nil dynamic engine for graph %q", name)
	}
	if err := api.ValidateGraphID(name); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.engines[name]; dup {
		return fmt.Errorf("server: graph %q registered twice", name)
	}
	s.engines[name] = dyn
	// The gauge captures the engine, not the server: reading it takes no
	// server lock, so a /metrics scrape can never contend with (or
	// deadlock against) the registry mutation paths.
	s.reg.GaugeFunc("ccspd_graph_epoch",
		"Serving epoch of each registered graph (0 = never mutated).",
		func() float64 { return float64(dyn.Epoch()) },
		telemetry.L("graph", name))
	return nil
}

// SetReady marks the server ready: every snapshot is loaded and queries
// may flow. Before this, /readyz and all query endpoints answer 503
// (ccsp.ErrUnavailable).
func (s *Server) SetReady() { s.ready.Store(true) }

// Ready reports whether the server has been marked ready.
func (s *Server) Ready() bool { return s.ready.Load() }

// engineFor resolves a request's graph ID against the registry.
func (s *Server) engineFor(graph string) (*ccsp.DynamicEngine, error) {
	if !s.ready.Load() {
		return nil, fmt.Errorf("%w: snapshots still loading", ccsp.ErrUnavailable)
	}
	s.mu.RLock()
	e, ok := s.engines[graph]
	s.mu.RUnlock()
	if !ok {
		if graph == "" {
			return nil, fmt.Errorf("%w: this daemon serves no default graph (name one of its graphs)", ccsp.ErrUnknownGraph)
		}
		return nil, fmt.Errorf("%w: %q", ccsp.ErrUnknownGraph, graph)
	}
	return e, nil
}

// graphIDs returns the registered graph IDs, sorted, including "" for
// the default graph when present.
func (s *Server) graphIDs() []string {
	s.mu.RLock()
	ids := make([]string, 0, len(s.engines))
	for name := range s.engines {
		ids = append(ids, name)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// namedGraphIDs is graphIDs without the default graph's empty ID.
func (s *Server) namedGraphIDs() []string {
	ids := s.graphIDs()
	if len(ids) > 0 && ids[0] == "" {
		ids = ids[1:]
	}
	return ids
}

// defaultEntry returns the default graph's engine, or nil.
func (s *Server) defaultEntry() *ccsp.DynamicEngine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engines[""]
}

// Handler returns the HTTP handler serving all endpoints. Serving
// endpoints run under the instrumentation middleware (per-endpoint
// status-class counters and latency histograms, see metrics.go); the
// metrics page itself is served bare so scrapes never pollute the request
// metrics they read. Profiling lives on DebugHandler, never here.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("/readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("/v1/query", s.instrument("query", s.handleQuery))
	mux.Handle("/v1/batch", s.instrument("batch", s.handleBatch))
	mux.Handle("/v1/update", s.instrument("update", s.handleUpdate))
	mux.Handle("/v1/epoch", s.instrument("epoch", s.handleEpoch))
	mux.Handle("/v1/stats", s.instrument("stats", s.handleStats))
	// Prometheus text exposition: this server's registry plus the
	// process-global one (engine and cluster metrics).
	mux.Handle("/metrics", s.metricsHandler())
	return mux
}

// lookup is the first shared step of every query position: resolve the
// graph, plan the request on its engine (ccsp.Engine.Plan - the one
// canonicalisation: a distance shares its source's MSSP entry, an auto
// APSP the entry of the variant it means) and consult the response
// cache. A hit is counted and comes back as its entry; a miss returns the
// plan to run and the engine that made it.
//
// The serving engine is taken from the registry once per request (one
// atomic load): it carries its epoch, so the plan's key, its validation
// and its run all describe one graph generation even if a swap lands in
// between. Keys are graph- and epoch-qualified, so one shared LRU serves
// every graph and every generation without aliasing.
func (s *Server) lookup(req api.Request) (eng *ccsp.Engine, p ccsp.Plan, hit *entry, err error) {
	dyn, err := s.engineFor(req.Graph)
	if err != nil {
		return nil, p, nil, err
	}
	eng = dyn.Engine()
	if p, err = eng.Plan(req); err != nil {
		return nil, p, nil, err
	}
	if s.cacheCap > 0 { // a disabled cache costs no key
		if e, ok := s.cache.Get(p.Key()); ok {
			s.queries.Inc()
			return eng, p, e, nil
		}
	}
	return eng, p, nil, nil
}

// answer is what one query position sends: a hit's stored body (newline
// included), or a response to encode.
type answer struct {
	body []byte
	resp api.Response
}

// hitAnswer is what a hit on e sends for req, planned as p: a distance
// projects its pair out of the entry's column, every other request sends
// the stored body.
func hitAnswer(p ccsp.Plan, req api.Request, e *entry) answer {
	if pair := req.Distance; pair != nil {
		return answer{resp: p.FinishDistance(e.col[pair.To], e.stats, true)}
	}
	return answer{body: e.body}
}

// withTimeout bounds ctx by the per-request Config.Timeout (unbounded
// when 0).
func (s *Server) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(ctx, s.timeout)
	}
	return ctx, func() {}
}

// enter is the gate in front of all engine-bound work: bound the request
// by the server timeout, then pass admission control - a saturated daemon
// sheds here with a fast typed 503 instead of queueing unboundedly. The
// work runs synchronously on the request goroutine under the returned
// context, so when it fires the run unwinds and the request returns - no
// goroutine keeps burning CPU behind an abandoned request. The returned
// pass's leave must be called once the engine work completes.
func (s *Server) enter(ctx context.Context) (context.Context, pass, error) {
	ctx, cancel := s.withTimeout(ctx)
	if err := s.admit(ctx); err != nil {
		cancel()
		return nil, pass{}, err
	}
	return ctx, pass{s, cancel}, nil
}

// pass is one admitted stretch of engine work, a value so that entering
// allocates no closure: leave releases its admission and its timeout.
type pass struct {
	s      *Server
	cancel context.CancelFunc
}

func (p pass) leave() {
	p.s.release()
	p.cancel()
}

// execute answers one request: lookup, enter, answer, store. A miss is
// answered lent (Plan.Answer), and release - a no-op on a hit - hands its
// plane, table or neighbor backing back once the caller has written the
// body. With the cache off the request's own plan answers (a distance
// reads its one cell); with it on the canonical plan does (Engine.Plan of
// p.Request() is that plan), since the entry is made of its answer:
// newEntry copies what it keeps, and the request's own answer is finished
// out of the same run.
func (s *Server) execute(ctx context.Context, req api.Request) (_ answer, release func(), _ error) {
	eng, p, hit, err := s.lookup(req)
	if err != nil {
		return answer{}, keepAll, err
	}
	if hit != nil {
		return hitAnswer(p, req, hit), keepAll, nil
	}
	run := p
	if s.cacheCap > 0 {
		if run, err = eng.Plan(p.Request()); err != nil {
			return answer{}, keepAll, err
		}
	}
	ctx, admitted, err := s.enter(ctx)
	if err != nil {
		return answer{}, keepAll, err
	}
	out, release, err := run.Answer(ctx)
	admitted.leave()
	if err != nil {
		return answer{}, keepAll, err
	}
	s.queries.Inc()
	if s.cacheCap == 0 {
		return answer{resp: *out}, release, nil
	}
	s.cache.Put(p.Key(), newEntry(*out))
	return answer{resp: p.Finish(*out, false)}, release, nil
}

// keepAll is the release of an answer that is not lent.
func keepAll() {}

// countError bumps the right per-class counter for a failed query and
// returns its status code.
func (s *Server) countError(err error) int {
	code := ccsp.HTTPStatus(err)
	if code == http.StatusGatewayTimeout {
		s.timeouts.Inc()
	} else {
		s.errors.Inc()
	}
	return code
}

// setRetryAfter attaches the Retry-After hint to a response about to
// report an admission-control shed; callers must invoke it before the
// status line is written.
func setRetryAfter(w http.ResponseWriter, err error) {
	if errors.Is(err, ccsp.ErrOverloaded) {
		w.Header().Set("Retry-After", retryAfterHint)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		// The process is alive but its snapshots are not all in yet;
		// non-200 keeps naive pollers (and the smoke scripts) waiting on
		// readiness, while /readyz carries the structured signal.
		writeJSON(w, http.StatusServiceUnavailable, api.Health{Status: "starting"})
		return
	}
	h := api.Health{Status: "ok", Graphs: s.namedGraphIDs()}
	if def := s.defaultEntry(); def != nil {
		gr := def.Engine().Graph()
		h.Nodes = gr.N()
		h.Edges = gr.M()
	}
	writeJSON(w, http.StatusOK, h)
}

// handleReadyz serves the readiness probe: 200 only once every snapshot
// is loaded/preprocessed, with the graph IDs this replica holds
// (including "" for the default graph). The cluster prober routes on
// exactly this advertisement.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.Ready{Ready: false, Graphs: []string{}})
		return
	}
	writeJSON(w, http.StatusOK, api.Ready{Ready: true, Graphs: s.graphIDs()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries, hits, misses := s.cache.Stats()
	body := map[string]interface{}{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"ready":          s.ready.Load(),
		"api": map[string]interface{}{
			"version":   api.Version,
			"max_batch": maxBatchRequests,
		},
		"requests": map[string]int64{
			"total":             s.requests.Value(),
			"errors":            s.errors.Value(),
			"timeouts":          s.timeouts.Value(),
			"queries":           s.queries.Value(),
			"batches":           s.batches.Value(),
			"batch_requests":    s.batchReqs.Value(),
			"batch_engine_runs": s.batchRuns.Value(),
			"shed":              s.shed.Value(),
			"updates":           s.updates.Value(),
			"inflight":          s.inflight.Value(),
		},
		"cache": map[string]interface{}{
			"capacity": s.cacheCap,
			"entries":  entries,
			"bytes":    s.cache.Bytes(),
			"hits":     hits,
			"misses":   misses,
		},
	}
	if s.adm != nil {
		body["admission"] = map[string]interface{}{
			"max_inflight":       cap(s.adm.slots),
			"max_queue":          cap(s.adm.queued),
			"queue_wait_seconds": s.adm.wait.Seconds(),
			"peak_inflight":      s.adm.peak.Load(),
			"shed":               s.shed.Value(),
		}
	}
	// The default graph keeps its historical top-level keys; named graphs
	// nest under "graphs".
	if def := s.defaultEntry(); def != nil {
		g, o, p := engineStats(def)
		body["graph"], body["options"], body["preprocess"] = g, o, p
	}
	if named := s.namedGraphIDs(); len(named) > 0 {
		graphs := make(map[string]interface{}, len(named))
		for _, name := range named {
			dyn, err := s.engineFor(name)
			if err != nil {
				continue // racing an unregister; nothing does that today
			}
			g, o, p := engineStats(dyn)
			graphs[name] = map[string]interface{}{"graph": g, "options": o, "preprocess": p}
		}
		body["graphs"] = graphs
	}
	writeJSON(w, http.StatusOK, body)
}

// engineStats renders one engine's graph/options/preprocess stat blocks.
// It snapshots the serving engine once, so the stats describe one
// consistent (graph, epoch) pair.
func engineStats(dyn *ccsp.DynamicEngine) (graph, options, preprocess map[string]interface{}) {
	eng := dyn.Engine()
	pre := eng.PreprocessStats()
	builds := make([]map[string]interface{}, 0, len(pre.Builds))
	for _, b := range pre.Builds {
		builds = append(builds, map[string]interface{}{
			"kind":   b.Kind,
			"eps":    b.Eps,
			"beta":   b.Beta,
			"edges":  b.Edges,
			"rounds": b.Stats.TotalRounds,
		})
	}
	gr := eng.Graph()
	graph = map[string]interface{}{
		"nodes":           gr.N(),
		"edges":           gr.M(),
		"max_weight":      gr.MaxWeight(),
		"unweighted":      gr.Unweighted(),
		"epoch":           eng.Epoch(),
		"pending_updates": dyn.Pending(),
	}
	options = map[string]interface{}{
		"epsilon": eng.Options().Epsilon,
		"workers": eng.Options().Workers,
	}
	preprocess = map[string]interface{}{
		"builds":       builds,
		"total_rounds": pre.Total.TotalRounds,
	}
	return graph, options, preprocess
}

// writeJSON writes v as one line of compact JSON: whitespace is not part
// of the wire schema (DESIGN.md §11), and indenting an n×q matrix quadruples
// its bytes. The document is complete before the status line goes out, so a
// value that cannot be encoded is a typed 500, not a 200 cut short, and a
// large body carries its Content-Length, which is what lets the client read
// it into one buffer of the right size (client.readBody).
//
// An api.Response goes through writeResponse instead, which appends it.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "",
			&api.Error{Code: api.CodeInternal, Message: "encode response: " + err.Error()})
		return
	}
	setJSON(w)
	send(w, code, append(body, '\n'))
}

// writeResponse writes r as writeJSON would, appended into a pooled buffer
// JSONLen sized (api.Response.AppendJSON: the bytes encoding/json would
// write, field by field), as a batch is (writeBatch), that goes back once
// the connection has taken the bytes. r is never boxed, so a warm point
// answer allocates nothing.
func writeResponse(w http.ResponseWriter, code int, r *api.Response) {
	setJSON(w)
	body := append(r.AppendJSON(encodeBufs.Get(r.JSONLen() + 1)[:0]), '\n')
	send(w, code, body)
	encodeBufs.Put(body)
}

// jsonContentType is the Content-Type of every body, one slice for all of
// them: net/http clones a handler's header before it writes it, so nothing
// writes into the shared value.
var jsonContentType = []string{"application/json"}

// setJSON labels the body as JSON without allocating the header value.
func setJSON(w http.ResponseWriter) { w.Header()["Content-Type"] = jsonContentType }

// writeAnswer writes one query position's 200: a hit's stored body as it
// is, anything else through writeResponse.
func writeAnswer(w http.ResponseWriter, a answer) {
	if a.body == nil {
		writeResponse(w, http.StatusOK, &a.resp)
		return
	}
	setJSON(w)
	send(w, http.StatusOK, a.body)
}

// writeBatch writes the 200 of a /v1/batch: the api.BatchResponse of the
// positions, appended into one pooled buffer JSONLen sized. A hit's stored
// body is spliced in as it is, less its newline, and a response appended
// (api.Response.AppendJSON).
func writeBatch(w http.ResponseWriter, answers []answer) {
	setJSON(w)
	n := len(`{"responses":[]}`+"\n") + max(len(answers)-1, 0)
	for i := range answers {
		if body := answers[i].body; body != nil {
			n += len(body) - 1
		} else {
			n += answers[i].resp.JSONLen()
		}
	}
	buf := encodeBufs.Get(n)
	b := append(buf[:0], `{"responses":[`...)
	for i := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		if body := answers[i].body; body != nil {
			b = append(b, body[:len(body)-1]...)
		} else {
			b = answers[i].resp.AppendJSON(b)
		}
	}
	send(w, http.StatusOK, append(b, "]}\n"...))
	encodeBufs.Put(buf)
}

// encodeBufs recycles the buffers writeResponse and writeBatch append
// answers into (DESIGN.md §13, "who owns which buffer").
var encodeBufs pool.Scratch[byte]

// send writes a whole body in one Write under its status, its length
// announced first (announce). A failed write is a client that left.
func send(w http.ResponseWriter, code int, body []byte) {
	announce(w, code, len(body))
	w.Write(body)
}

// chunkingThreshold is the body size from which net/http, not told a
// length, switches to chunked encoding; anything smaller it buffers whole
// and labels itself, so spelling the header out there would only allocate.
const chunkingThreshold = 2048

// announce sends the status line of an n-byte body, with its
// Content-Length from chunkingThreshold up.
func announce(w http.ResponseWriter, code, n int) {
	if n >= chunkingThreshold {
		w.Header().Set("Content-Length", strconv.Itoa(n))
	}
	w.WriteHeader(code)
}
