// Package loadgen drives synthetic query traffic against a ccspd daemon
// or cluster and measures what came back: throughput, latency quantiles
// and a typed error census. It is the measurement half of the serving
// claims - the daemon bounds its concurrency with admission control,
// and loadgen is how we observe that bound from the outside (admitted
// requests keep their latency, the excess sheds as fast typed 503s).
//
// A Run replays a weighted mix of query kinds with randomized sources
// drawn from a uniform or Zipf distribution, either closed-loop (each
// of Concurrency workers issues its next request the moment the
// previous answer lands - throughput finds its own level) or open-loop
// (requests arrive at a fixed aggregate QPS regardless of how the
// daemon is doing - the honest model of external traffic, where
// overload shows up as shed errors rather than self-throttling).
// Runs are deterministic for a fixed Config.Seed apart from wall-clock
// jitter: the request sequence each worker generates is seeded.
//
// cmd/ccload is the CLI wrapper; the package's tests run the same
// harness in-process against httptest daemons.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// Target is the query surface a run drives. Both *client.Client (one
// daemon) and *client.Cluster (sharded tier) satisfy it.
type Target interface {
	Query(ctx context.Context, req api.Request) (*api.Response, error)
	Batch(ctx context.Context, reqs []api.Request) ([]api.Response, error)
}

// UpdateTarget is the optional mutation surface: a Target that also
// implements it can serve mixes containing the "update" kind
// (*client.Client does). Run type-asserts at startup and rejects an
// update-carrying mix against a read-only target.
type UpdateTarget interface {
	Update(ctx context.Context, graph string, ups []api.EdgeUpdate) (*api.UpdateResponse, error)
}

// Distribution selects how source node IDs are drawn.
type Distribution string

const (
	// Uniform draws sources uniformly over [0, Nodes).
	Uniform Distribution = "uniform"
	// Zipf draws sources Zipf-distributed (s=1.1): a few hot nodes
	// dominate, the realistic shape for cache-hit studies.
	Zipf Distribution = "zipf"
)

// ParseDistribution maps a flag string onto a Distribution.
func ParseDistribution(s string) (Distribution, error) {
	switch Distribution(s) {
	case Uniform, Zipf:
		return Distribution(s), nil
	case "":
		return Uniform, nil
	default:
		return "", fmt.Errorf("loadgen: unknown source distribution %q (uniform | zipf)", s)
	}
}

// DefaultMix is the kind mix used when Config.Mix is empty: mostly
// point lookups with a steady trickle of heavier sweeps, the shape of
// a distance-serving workload.
func DefaultMix() map[api.Kind]int {
	return map[api.Kind]int{
		api.KindDistance: 70,
		api.KindSSSP:     20,
		api.KindMSSP:     10,
	}
}

// mixKinds is the fixed kind order loadgen iterates mixes in: the
// query kinds plus the write kind (api.KindUpdate is deliberately not
// a query kind, but workload mixes name write traffic with it).
func mixKinds() []api.Kind {
	return append(api.Kinds(), api.KindUpdate)
}

// ParseMix parses a "kind=weight,kind=weight" flag string (e.g.
// "distance=70,sssp=20,update=5"). Weights must be positive integers
// and kinds must be valid api kinds (or "update" for write traffic).
func ParseMix(s string) (map[api.Kind]int, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultMix(), nil
	}
	known := make(map[api.Kind]bool)
	for _, k := range mixKinds() {
		known[k] = true
	}
	mix := make(map[api.Kind]int)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("loadgen: bad mix entry %q (want kind=weight)", part)
		}
		kind := api.Kind(strings.TrimSpace(kv[0]))
		if !known[kind] {
			return nil, fmt.Errorf("loadgen: unknown kind %q in mix", kv[0])
		}
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(kv[1]), "%d", &w); err != nil || w <= 0 {
			return nil, fmt.Errorf("loadgen: bad weight %q for kind %q", kv[1], kind)
		}
		mix[kind] = w
	}
	return mix, nil
}

// Config parameterizes one load run. Zero values fall back to the
// documented defaults; Nodes is the one required field.
type Config struct {
	// Mix weights the query kinds; nil or empty uses DefaultMix.
	Mix map[api.Kind]int
	// Graphs lists the graph IDs to spread requests over; empty targets
	// the default (unnamed) graph only.
	Graphs []string
	// Nodes is the node-ID space: sources and targets are drawn from
	// [0, Nodes). Required (> 0); cmd/ccload discovers it via /healthz.
	Nodes int
	// Source selects the source-ID distribution (default Uniform).
	Source Distribution
	// Duration bounds the run's wall clock (default 5s).
	Duration time.Duration
	// Concurrency is the worker count: the closed-loop in-flight bound,
	// or the open-loop pool draining the pacer (default 8).
	Concurrency int
	// QPS > 0 switches to open-loop arrivals at this aggregate rate;
	// 0 runs closed-loop.
	QPS float64
	// BatchSize > 1 groups requests into POST /v1/batch operations of
	// this size; 0 or 1 issues single queries. Update positions are
	// always issued as individual POST /v1/update operations - the
	// update plane has no batch-of-batches endpoint.
	BatchSize int
	// UpdateMaxW bounds the weight of generated edge updates: each
	// update reweights one random edge {u, v} to a weight drawn
	// uniformly from [1, UpdateMaxW] (default 16). Only meaningful when
	// the mix contains the "update" kind.
	UpdateMaxW int64
	// Seed makes the generated request sequence deterministic (0 = 1).
	Seed int64
}

func (c *Config) defaults() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("loadgen: Config.Nodes must be positive (got %d)", c.Nodes)
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix()
	}
	if c.Source == "" {
		c.Source = Uniform
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("loadgen: negative BatchSize %d", c.BatchSize)
	}
	if c.QPS < 0 {
		return fmt.Errorf("loadgen: negative QPS %.1f", c.QPS)
	}
	if c.UpdateMaxW < 0 {
		return fmt.Errorf("loadgen: negative UpdateMaxW %d", c.UpdateMaxW)
	}
	if c.UpdateMaxW == 0 {
		c.UpdateMaxW = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Report is what a run measured. Latency quantiles are per-operation
// (a batch is one operation) over every completed op, successes and
// errors alike - a shed 503 is deliberately counted, because "errors
// come back fast" is part of what overload behavior must prove.
type Report struct {
	// Config echo, for self-describing output.
	Workload string        `json:"workload"`
	Duration time.Duration `json:"-"`
	Seconds  float64       `json:"seconds"`

	// Ops counts HTTP operations; Requests counts query positions
	// (Ops == Requests unless batching).
	Ops      int64 `json:"ops"`
	Requests int64 `json:"requests"`
	// OK counts query positions that answered without a typed error.
	OK int64 `json:"ok"`
	// Missed counts open-loop arrivals dropped because the backlog was
	// full - the generator itself couldn't keep pace, so the offered
	// rate was effectively lower than QPS.
	Missed int64 `json:"missed,omitempty"`

	// QPS is completed query positions per second of run wall-clock.
	QPS float64 `json:"qps"`

	// ErrorsByCode censuses failed positions by api.ErrorCode string,
	// with "transport" for untyped failures (connection refused, etc).
	ErrorsByCode map[string]int64 `json:"errors_by_code,omitempty"`

	// ByKind counts issued query positions per kind.
	ByKind map[api.Kind]int64 `json:"by_kind"`

	// Per-op latency quantiles.
	P50  time.Duration `json:"-"`
	P95  time.Duration `json:"-"`
	P99  time.Duration `json:"-"`
	Max  time.Duration `json:"-"`
	Mean time.Duration `json:"-"`

	P50Millis  float64 `json:"p50_ms"`
	P95Millis  float64 `json:"p95_ms"`
	P99Millis  float64 `json:"p99_ms"`
	MaxMillis  float64 `json:"max_ms"`
	MeanMillis float64 `json:"mean_ms"`
}

// Errors sums the typed and transport error counts.
func (r *Report) Errors() int64 {
	var n int64
	for _, c := range r.ErrorsByCode {
		n += c
	}
	return n
}

// worker-local accumulator, merged once at the end so the measurement
// path shares nothing.
type tally struct {
	ops, requests, ok int64
	errs              map[string]int64
	byKind            map[api.Kind]int64
	samples           []time.Duration
}

func newTally() *tally {
	return &tally{errs: make(map[string]int64), byKind: make(map[api.Kind]int64)}
}

// errCode maps a failure onto its api.ErrorCode string via the sentinel
// taxonomy; anything untyped (socket errors, proxy pages) is "transport".
func errCode(err error) string {
	if e := ccsp.APIError(err); e.Code != api.CodeInternal {
		return string(e.Code)
	}
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return string(apiErr.Code)
	}
	return "transport"
}

// gen produces the deterministic request stream for one worker.
type gen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	kinds  []api.Kind // weight-expanded lookup table
	graphs []string
	nodes  int
	maxW   int64
}

func newGen(cfg *Config, worker int) *gen {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)*7919))
	g := &gen{rng: rng, graphs: cfg.Graphs, nodes: cfg.Nodes, maxW: cfg.UpdateMaxW}
	if cfg.Source == Zipf && cfg.Nodes > 1 {
		g.zipf = rand.NewZipf(rng, 1.1, 1, uint64(cfg.Nodes-1))
	}
	// Expand weights into a flat table; total weight is small (flag
	// strings), so O(total) memory beats per-draw weighted selection.
	kinds := make([]api.Kind, 0, len(cfg.Mix))
	for _, k := range mixKinds() { // fixed order for determinism
		for i := 0; i < cfg.Mix[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	g.kinds = kinds
	return g
}

func (g *gen) node() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(g.nodes)
}

func (g *gen) graph() string {
	if len(g.graphs) == 0 {
		return ""
	}
	return g.graphs[g.rng.Intn(len(g.graphs))]
}

// kind draws the next kind of the weighted mix.
func (g *gen) kind() api.Kind {
	return g.kinds[g.rng.Intn(len(g.kinds))]
}

// update generates one edge mutation: reweight a random edge {u, v} to
// a weight in [1, UpdateMaxW] (insert-or-reweight, never delete, so a
// long run cannot disconnect the graph under test).
func (g *gen) update() (string, []api.EdgeUpdate) {
	u := g.node()
	v := g.node()
	for v == u && g.nodes > 1 {
		v = g.node()
	}
	return g.graph(), []api.EdgeUpdate{{U: u, V: v, W: 1 + g.rng.Int63n(g.maxW)}}
}

// reqOf generates one query request of the given kind (never
// api.KindUpdate - updates are not queries; see update).
func (g *gen) reqOf(kind api.Kind) api.Request {
	// The graph is drawn before the parameters: the order of draws is the
	// seeded stream tests and benchmarks replay.
	graph := g.graph()
	var req api.Request
	switch kind {
	case api.KindSSSP:
		req = api.SSSP(g.node())
	case api.KindMSSP:
		req = api.MSSP(g.node(), g.node(), g.node())
	case api.KindAPSP:
		req = api.APSP("")
	case api.KindDistance:
		req = api.Distance(g.node(), g.node())
	case api.KindDiameter:
		req = api.Diameter()
	case api.KindKNearest:
		req = api.KNearest(1 + g.rng.Intn(4))
	case api.KindSourceDetection:
		req = api.SourceDetection([]int{g.node(), g.node()}, 4, 2)
	}
	return req.On(graph)
}

// Run drives cfg's workload against target and reports what happened.
// It returns early only on config errors; daemon-side failures are
// data, not errors (they land in Report.ErrorsByCode).
func Run(ctx context.Context, target Target, cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	// Write traffic needs the mutation surface; reject the mismatch up
	// front instead of counting a run's worth of synthetic failures.
	var upd UpdateTarget
	if cfg.Mix[api.KindUpdate] > 0 {
		u, ok := target.(UpdateTarget)
		if !ok {
			return nil, fmt.Errorf("loadgen: mix contains update traffic but target %T cannot apply updates", target)
		}
		upd = u
	}
	// stopCtx only gates *issuing*: when the duration elapses, workers
	// stop picking up new work but in-flight operations drain on the
	// caller's ctx - ending the run must not manufacture canceled
	// errors out of perfectly healthy requests.
	stopCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	// Open loop: a pacer feeds arrival tokens at QPS into a bounded
	// backlog; workers drain it. A full backlog means the generator
	// (not the daemon) fell behind - counted as Missed, never blocking
	// the pacer, so the arrival process stays time-driven.
	var arrivals chan struct{}
	var missed int64
	var pacerWG sync.WaitGroup
	if cfg.QPS > 0 {
		arrivals = make(chan struct{}, cfg.Concurrency*4)
		// The pacer owes QPS*elapsed arrivals at any instant and settles
		// the debt on every tick. Anchoring to wall clock (not tick
		// counts) keeps the offered rate exact even when ticker wakeups
		// coalesce under load - exactly the moment an overload
		// experiment most needs the arrival process to hold its rate.
		interval := time.Duration(float64(time.Second) / cfg.QPS)
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		pacerWG.Add(1)
		go func() {
			defer pacerWG.Done()
			defer close(arrivals)
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			begin := time.Now()
			var issued int64
			for {
				select {
				case <-stopCtx.Done():
					return
				case <-ticker.C:
					owed := int64(cfg.QPS*time.Since(begin).Seconds()) - issued
					for ; owed > 0; owed-- {
						issued++
						select {
						case arrivals <- struct{}{}:
						default:
							missed++ // pacer is the only writer; no race
						}
					}
				}
			}
		}()
	}

	tallies := make([]*tally, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		t := newTally()
		tallies[w] = t
		g := newGen(&cfg, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if arrivals != nil {
					if _, ok := <-arrivals; !ok {
						return // pacer closed: run over
					}
				} else if stopCtx.Err() != nil {
					return
				}
				issue(ctx, target, upd, g, &cfg, t)
			}
		}()
	}
	wg.Wait()
	pacerWG.Wait()
	elapsed := time.Since(start)

	return assemble(tallies, &cfg, elapsed, missed), nil
}

// issue performs one operation (a single query, one batch, or one
// update) and folds the outcome into t. Update positions drawn in batch
// mode are issued as their own POST /v1/update operations - each with
// its own latency sample - and the batch carries the remaining queries.
func issue(ctx context.Context, target Target, upd UpdateTarget, g *gen, cfg *Config, t *tally) {
	if cfg.BatchSize > 1 {
		reqs := make([]api.Request, 0, cfg.BatchSize)
		for i := 0; i < cfg.BatchSize; i++ {
			if k := g.kind(); k == api.KindUpdate {
				issueUpdate(ctx, upd, g, t)
			} else {
				req := g.reqOf(k)
				t.byKind[k]++
				reqs = append(reqs, req)
			}
		}
		if len(reqs) == 0 {
			return
		}
		begin := time.Now()
		resps, err := target.Batch(ctx, reqs)
		lat := time.Since(begin)
		t.ops++
		t.requests += int64(len(reqs))
		t.samples = append(t.samples, lat)
		if err != nil {
			code := errCode(err)
			t.errs[code] += int64(len(reqs))
			return
		}
		for i := range resps {
			if e := resps[i].Error; e != nil {
				t.errs[string(e.Code)]++
			} else {
				t.ok++
			}
		}
		return
	}
	k := g.kind()
	if k == api.KindUpdate {
		issueUpdate(ctx, upd, g, t)
		return
	}
	req := g.reqOf(k)
	t.byKind[k]++
	begin := time.Now()
	_, err := target.Query(ctx, req)
	lat := time.Since(begin)
	t.ops++
	t.requests++
	t.samples = append(t.samples, lat)
	if err != nil {
		t.errs[errCode(err)]++
	} else {
		t.ok++
	}
}

// issueUpdate performs one synchronous edge update (one graph
// generation: the latency sample covers staging plus the rebuild).
func issueUpdate(ctx context.Context, upd UpdateTarget, g *gen, t *tally) {
	graph, ups := g.update()
	t.byKind[api.KindUpdate]++
	begin := time.Now()
	_, err := upd.Update(ctx, graph, ups)
	lat := time.Since(begin)
	t.ops++
	t.requests++
	t.samples = append(t.samples, lat)
	if err != nil {
		t.errs[errCode(err)]++
	} else {
		t.ok++
	}
}

// assemble merges worker tallies into the final report.
func assemble(tallies []*tally, cfg *Config, elapsed time.Duration, missed int64) *Report {
	r := &Report{
		Workload:     describe(cfg),
		Duration:     elapsed,
		Seconds:      elapsed.Seconds(),
		ErrorsByCode: make(map[string]int64),
		ByKind:       make(map[api.Kind]int64),
		Missed:       missed,
	}
	var all []time.Duration
	var sum time.Duration
	for _, t := range tallies {
		r.Ops += t.ops
		r.Requests += t.requests
		r.OK += t.ok
		for c, n := range t.errs {
			r.ErrorsByCode[c] += n
		}
		for k, n := range t.byKind {
			r.ByKind[k] += n
		}
		all = append(all, t.samples...)
		for _, s := range t.samples {
			sum += s
		}
	}
	if elapsed > 0 {
		r.QPS = float64(r.Requests) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		r.P50 = quantile(all, 0.50)
		r.P95 = quantile(all, 0.95)
		r.P99 = quantile(all, 0.99)
		r.Max = all[len(all)-1]
		r.Mean = sum / time.Duration(len(all))
	}
	r.P50Millis = ms(r.P50)
	r.P95Millis = ms(r.P95)
	r.P99Millis = ms(r.P99)
	r.MaxMillis = ms(r.Max)
	r.MeanMillis = ms(r.Mean)
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile reads the q-quantile from sorted samples (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// describe renders the workload shape as a compact label, e.g.
// "closed c=8 distance=70,sssp=20,mssp=10 uniform" or
// "open qps=500 c=8 ... zipf batch=16".
func describe(cfg *Config) string {
	var b strings.Builder
	if cfg.QPS > 0 {
		fmt.Fprintf(&b, "open qps=%g c=%d", cfg.QPS, cfg.Concurrency)
	} else {
		fmt.Fprintf(&b, "closed c=%d", cfg.Concurrency)
	}
	parts := make([]string, 0, len(cfg.Mix))
	for _, k := range mixKinds() {
		if w := cfg.Mix[k]; w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, w))
		}
	}
	fmt.Fprintf(&b, " %s %s", strings.Join(parts, ","), cfg.Source)
	if cfg.BatchSize > 1 {
		fmt.Fprintf(&b, " batch=%d", cfg.BatchSize)
	}
	return b.String()
}

// Fprint renders the report as human-readable text.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "workload:  %s\n", r.Workload)
	fmt.Fprintf(w, "duration:  %.2fs\n", r.Seconds)
	fmt.Fprintf(w, "ops:       %d (%d requests, %d ok)\n", r.Ops, r.Requests, r.OK)
	fmt.Fprintf(w, "qps:       %.1f\n", r.QPS)
	fmt.Fprintf(w, "latency:   p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms  mean %.2fms\n",
		r.P50Millis, r.P95Millis, r.P99Millis, r.MaxMillis, r.MeanMillis)
	if r.Missed > 0 {
		fmt.Fprintf(w, "missed:    %d open-loop arrivals dropped (generator fell behind)\n", r.Missed)
	}
	if len(r.ErrorsByCode) > 0 {
		codes := make([]string, 0, len(r.ErrorsByCode))
		for c := range r.ErrorsByCode {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		fmt.Fprintf(w, "errors:    %d", r.Errors())
		for _, c := range codes {
			fmt.Fprintf(w, "  %s=%d", c, r.ErrorsByCode[c])
		}
		fmt.Fprintln(w)
	}
	kinds := make([]string, 0, len(r.ByKind))
	for _, k := range mixKinds() {
		if n := r.ByKind[k]; n > 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
		}
	}
	fmt.Fprintf(w, "by kind:   %s\n", strings.Join(kinds, "  "))
}
