// Server-side telemetry: every Server owns a private telemetry.Registry
// (so tests and multi-server processes stay isolated) exposed at GET
// /metrics alongside the process-global telemetry.Default that engine-
// and cluster-level instrumentation records into. GET /v1/stats reads
// through the same metrics, so the two views can never drift.
package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"github.com/congestedclique/ccsp/internal/telemetry"
)

// initMetrics builds the server's registry: the serving counters the
// handlers bump, plus read-through children over state that is already
// counted elsewhere (the LRU's hit/miss tallies, the readiness bit, the
// admission high-water mark) where a second atomic would drift.
func (s *Server) initMetrics() {
	r := telemetry.NewRegistry()
	s.reg = r

	s.requests = r.Counter("ccspd_requests_total",
		"HTTP requests served, across every serving endpoint.")
	s.errors = r.Counter("ccspd_query_errors_total",
		"Failed queries (malformed, invalid, unavailable, shed), excluding timeouts.")
	s.timeouts = r.Counter("ccspd_query_timeouts_total",
		"Queries killed by the per-request server timeout.")
	s.queries = r.Counter("ccspd_queries_total",
		"Successfully answered query positions (cache hits included).")
	s.batches = r.Counter("ccspd_batches_total",
		"POST /v1/batch bodies served.")
	s.batchReqs = r.Counter("ccspd_batch_requests_total",
		"Total request positions across all batch bodies.")
	s.batchRuns = r.Counter("ccspd_batch_engine_runs_total",
		"Deduplicated engine runs executed for batch positions; the gap to ccspd_batch_requests_total is the dedup+cache win.")
	s.shed = r.Counter("ccspd_shed_total",
		"Queries rejected by admission control (bounded in-flight limit and wait queue both full).")
	s.updates = r.Counter("ccspd_updates_total",
		"Edge-update batches accepted by POST /v1/update (each one graph generation).")
	s.inflight = r.Gauge("ccspd_inflight",
		"Queries and batches currently executing on the engines.")

	r.GaugeFunc("ccspd_ready",
		"1 once every snapshot is loaded and queries may flow, else 0.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("ccspd_graphs",
		"Graphs registered in the serving registry (default graph included).",
		func() float64 { return float64(len(s.graphIDs())) })
	r.GaugeFunc("ccspd_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })

	r.GaugeFunc("ccspd_cache_capacity",
		"Response LRU capacity in entries (0 = caching disabled).",
		func() float64 { return float64(s.cacheCap) })
	r.GaugeFunc("ccspd_cache_entries",
		"Responses currently held by the LRU.",
		func() float64 { e, _, _ := s.cache.Stats(); return float64(e) })
	r.GaugeFunc("ccspd_cache_bytes",
		"Bytes the LRU's entries retain: stored bodies plus distance columns.",
		func() float64 { return float64(s.cache.Bytes()) })
	r.CounterFunc("ccspd_cache_hits_total",
		"Queries answered from the response LRU.",
		func() float64 { _, h, _ := s.cache.Stats(); return float64(h) })
	r.CounterFunc("ccspd_cache_misses_total",
		"Queries that missed the response LRU.",
		func() float64 { _, _, m := s.cache.Stats(); return float64(m) })

	if s.adm != nil {
		r.GaugeFunc("ccspd_admission_limit",
			"Execution slots admission control allows concurrently.",
			func() float64 { return float64(cap(s.adm.slots)) })
		r.GaugeFunc("ccspd_admission_queue_capacity",
			"Wait-queue slots behind the execution limit.",
			func() float64 { return float64(cap(s.adm.queued)) })
		r.GaugeFunc("ccspd_inflight_peak",
			"High-water mark of queries concurrently holding an execution slot.",
			func() float64 { return float64(s.adm.peak.Load()) })
	}
}

// Metrics returns the server's private telemetry registry, for callers
// (the daemon's debug listener, tests) that mount it somewhere beyond
// the built-in /metrics route.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// metricsHandler serves the exposition page: this server's registry
// plus the process-global Default (engine and cluster metrics).
func (s *Server) metricsHandler() http.Handler {
	return telemetry.Handler(s.reg, telemetry.Default)
}

// DebugHandler returns the opt-in debug surface cmd/ccspd serves on a
// separate -debug-addr listener: net/http/pprof profiles and the same
// /metrics exposition as the public handler. It is deliberately not
// part of Handler so nothing that exposes the process (profiles, its
// command line) ever rides on the public serving port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", s.metricsHandler())
	return mux
}

// endpointMetrics is the pre-created per-endpoint instrumentation the
// middleware records into: one latency histogram plus one counter per
// status class, resolved once at mux construction so the request path
// never takes the registry mutex.
type endpointMetrics struct {
	hist    *telemetry.Histogram
	classes [6]*telemetry.Counter // indexed by status/100; [0] unused
}

// instrument wraps one endpoint handler with the request middleware:
// total-request count, per-endpoint/status-class counters, and a
// per-endpoint latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	em := &endpointMetrics{
		hist: s.reg.Histogram("ccspd_http_request_seconds",
			"HTTP request latency by endpoint.", nil,
			telemetry.L("endpoint", endpoint)),
	}
	for class := 1; class < len(em.classes); class++ {
		em.classes[class] = s.reg.Counter("ccspd_http_requests_total",
			"HTTP requests by endpoint and status class.",
			telemetry.L("endpoint", endpoint),
			telemetry.L("class", fmt.Sprintf("%dxx", class)))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		rec := recorders.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		start := time.Now()
		h(rec, r)
		em.hist.ObserveDuration(time.Since(start))
		if class := rec.status / 100; class >= 1 && class < len(em.classes) {
			em.classes[class].Inc()
		}
		rec.ResponseWriter = nil
		recorders.Put(rec)
	})
}

// statusRecorder captures the status code a handler writes; 200 when
// the handler never calls WriteHeader explicitly. Every handler is done
// with its writer when it returns, so the middleware takes one from
// recorders and gives it back after.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

var recorders = sync.Pool{New: func() interface{} { return new(statusRecorder) }}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
