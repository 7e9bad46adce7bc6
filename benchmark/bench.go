package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/congestedclique/ccsp/api"
)

// config is the scale of a run. Everything but seed, seconds and trace is
// fixed by full() or smoke().
type config struct {
	n        int
	seed     int64
	run      time.Duration // the recorded phase
	warm     time.Duration // the unrecorded phase before it
	reads    int           // mutate: client B's reads per update cycle
	replay   int           // schedule prefix the traced pass replays layer by layer
	fillIn   int           // requests per kind the schedule lacks, in the traced pass
	checkPin bool
	outDir   string
}

// numSetups is how many times an end-to-end run sets the system up;
// setup_s is their median.
const numSetups = 3

func full(seed int64, seconds int) config {
	run := time.Duration(seconds) * time.Second
	// 1024 reads keep client B busy for most of a rebuild (4-8 s at 150-300
	// reads a second beside the builder) without outlasting it by much.
	return config{n: 1024, seed: seed, run: run, warm: run / 5, reads: 1024, replay: 64, fillIn: 4,
		checkPin: seed == 1}
}

// smoke is the scale of the package's own test: every code path, no
// meaningful numbers.
func smoke(seed int64) config {
	return config{n: 64, seed: seed, run: 300 * time.Millisecond, warm: 50 * time.Millisecond, reads: 32, replay: 16, fillIn: 2}
}

// metric is one reported value. of, if set, holds the samples the value
// is the median of (setup_s: the run's set-ups); they are printed with
// their spread (max-min)/value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	of    []float64
}

// result is one workload's outcome in one mode.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	names     []string // emission order
	firstErr  error
	tracePath string // traced pass: where the spans went
}

func newResult(wl *workload) *result {
	return &result{Workload: wl.name, Metrics: make(map[string]metric)}
}

// set emits a metric; of are the samples v is the median of, if any.
func (r *result) set(name, unit string, v float64, of ...float64) {
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, of: of}
	r.names = append(r.names, name)
}

func (r *result) fail(err error) {
	r.Failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// absorb folds a connection's counts into the result.
func (r *result) absorb(l *opLog) {
	r.Attempted += l.ops
	r.Failed += l.failed
	if r.firstErr == nil {
		r.firstErr = l.firstErr
	}
}

// checkWarm is the pre-clock oracle: the answer set-up got for each warmed
// kind is checked against Dijkstra, then dropped.
func (r *result) checkWarm(o *oracle, st *stack) {
	for _, a := range st.warmAnswers {
		r.Attempted++
		if err := o.check(a.req, a.resp, 0); err != nil {
			r.fail(fmt.Errorf("pre-clock oracle: %w", err))
		}
	}
	st.warmAnswers = nil
}

// checkKept checks the responses the logs kept (one in 64) against
// Dijkstra, then drops them.
func (r *result) checkKept(o *oracle, logs ...*opLog) {
	for _, l := range logs {
		for _, kp := range l.kept {
			if err := o.checkRange(kp.req, kp.resp, kp.sent-1, kp.arrived); err != nil {
				r.fail(fmt.Errorf("sampled answer: %w", err))
			}
		}
		l.kept = nil
	}
}

// checkPins asserts the default inputs are the pinned ones.
func checkPins(wl *workload, g *testGraph, w []int64, seed int64) error {
	if got := g.hash(w); got != pinnedGraph {
		return fmt.Errorf("edge list of seed %d hashes to %#x, pinned %#x: the graph generator drifted", seed, got, pinnedGraph)
	}
	if got := scheduleHash(wl, g, seed); got != pinnedSchedule[wl.name] {
		return fmt.Errorf("schedule of %s hashes to %#x, pinned %#x: the request generator drifted", wl.name, got, pinnedSchedule[wl.name])
	}
	return nil
}

// warmRequests is one request of every listed kind, from its own stream.
func warmRequests(wl *workload, n int, seed int64, kinds []api.Kind) []api.Request {
	gen := newOpGen(&workload{name: wl.name + "/warm"}, n, seed, 0)
	var out []api.Request
	for _, kind := range kinds {
		out = append(out, gen.request(kind))
	}
	return out
}

var allKinds = []api.Kind{api.KindDistance, api.KindMSSP, api.KindKNearest, api.KindAPSP}

// kindsOf lists the kinds a workload issues, in allKinds order.
func kindsOf(wl *workload) []api.Kind {
	var out []api.Kind
	for _, kind := range allKinds {
		if wl.uses(kind) {
			out = append(out, kind)
		}
	}
	return out
}

// prepare generates the inputs of a run and checks the pins.
func prepare(cfg config, wl *workload) (*testGraph, *oracle, error) {
	g, w := genGraph(cfg.n, cfg.seed)
	if cfg.checkPin {
		if err := checkPins(wl, g, w, cfg.seed); err != nil {
			return nil, nil, err
		}
	}
	return g, newOracle(g, w, epsilon), nil
}

// runEndToEnd measures a workload with tracing off: set-up (numSetups
// times, the last one serves), a pre-clock oracle check, warm-up, and the
// recorded phase.
func runEndToEnd(ctx context.Context, cfg config, wl *workload) (*result, error) {
	g, o, err := prepare(cfg, wl)
	if err != nil {
		return nil, err
	}
	res := newResult(wl)
	warm := warmRequests(wl, cfg.n, cfg.seed, kindsOf(wl))
	var st *stack
	var setups []float64
	for i := 0; i < numSetups; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		if st, err = setUp(ctx, wl, g, o.weightsAt(0), warm, nil); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
	}
	defer st.close()
	res.set("setup_s", "s", median(setups), setups...)

	res.checkWarm(o, st)

	d := &driver{ctx: ctx, n: cfg.n, o: o}
	s := d.open(wl, g, cfg.seed, st.base, numClients)
	defer s.close()
	for _, l := range s.read(after(time.Now().Add(cfg.warm))) {
		res.absorb(l)
	}
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	logs := s.record(wl, cfg.reads, cfg.run)
	runtime.ReadMemStats(&mem1)

	// The recorded ops: every reader's, and on mutate the writer's probes.
	// An update is no op of its own: its cost is spread over its cycle.
	if s.writer != nil {
		logs = append(logs, &s.writer.opLog)
	}
	var ops float64
	var bytes int64
	for _, l := range logs {
		res.absorb(l)
		ops += float64(len(l.samples))
		for _, sm := range l.samples {
			bytes += sm.bytes
		}
	}
	if ops == 0 {
		return nil, fmt.Errorf("%s: the recorded phase completed no request (first error: %v)", wl.name, res.firstErr)
	}
	res.set("allocs_per_op", "count", float64(mem1.Mallocs-mem0.Mallocs)/ops)
	res.set("alloc_kb_per_op", "KiB", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/ops)
	res.set("resp_kb_per_op", "KiB", float64(bytes)/1024/ops)

	// One response in 64 was kept; check those against Dijkstra now that
	// the clock has stopped, then drop them (and the oracle's distance
	// vectors) before reading the live heap.
	res.checkKept(o, logs...)
	o.forget()
	runtime.GC()
	runtime.GC() // the second collection empties the sync.Pool victim caches
	runtime.ReadMemStats(&mem1)
	res.set("live_heap_mb", "MiB", float64(mem1.HeapAlloc)/(1<<20))

	res.Correct = res.Failed == 0
	return res, nil
}

// fmtFloats prints the values space-separated (fmt applies the verb to
// each element of a slice).
func fmtFloats(v []float64) string {
	return strings.Trim(fmt.Sprintf("%.4g", v), "[]")
}
