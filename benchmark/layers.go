package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/server"
	"github.com/congestedclique/ccsp/internal/snapshot"
)

// runTrace is the traced pass. Phase A drives the workload exactly as the
// end-to-end run does, with recording off, for the time metrics of two
// connections. Phase B drives the schedule with one closed-loop client
// through a span-recording middleware, recording every other cycle, so
// that layer spans do not contend and trace.overhead_pct compares like
// with like. Then a sample of the schedule is replayed layer by layer, in
// process, through the public functions of each layer on the harness's own
// matrices. Every per-layer metric is measured on every workload: a kind
// the schedule never issues (and the cache-hit path where the cache is
// off) is filled in by a few probe requests against a second,
// cache-enabled server on the same engine.
func runTrace(ctx context.Context, cfg config, wl *workload) (*result, error) {
	g, o, err := prepare(cfg, wl)
	if err != nil {
		return nil, err
	}
	res := newResult(wl)
	rec := newRecorder()
	st, err := setUp(ctx, wl, g, o.weightsAt(0), warmRequests(wl, cfg.n, cfg.seed, allKinds), rec.wrap)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.checkWarm(o, st)
	res.set("ccsp.new_engine_s", "s", st.newEngine.Seconds())
	res.set("ccsp.first_query_ms", "ms", msOf(st.firstQuery))
	res.set("ccsp.apsp_artifact_s", "s", st.apspWarm.Seconds())

	d := &driver{ctx: ctx, n: cfg.n, o: o, rec: rec}
	before, err := scrapeServer(ctx, st.base)
	if err != nil {
		return nil, err
	}

	// Phase A: the end-to-end shape, recording off.
	s := d.open(wl, g, cfg.seed, st.base, numClients)
	for _, l := range s.read(after(time.Now().Add(cfg.warm))) {
		res.absorb(l)
	}
	both := s.record(wl, cfg.reads, cfg.run)
	s.close()
	fresh := s.writer
	res.checkKept(o, both...)

	// Phase B: one client, every other cycle recorded.
	one := d.open(wl, g, cfg.seed, st.base, 1)
	plain, traced := &opLog{}, &opLog{}
	for i, done := 0, after(time.Now().Add(cfg.run)); i%2 == 1 || !done(); i++ {
		log := plain
		if i%2 == 1 {
			log = traced
		}
		rec.on.Store(i%2 == 1)
		d.runCycles(one.conns[0], one.gens[0], func() bool { return true }, log)
	}
	rec.on.Store(false)
	one.close()
	res.checkKept(o, plain, traced)
	now, err := scrapeServer(ctx, st.base)
	if err != nil {
		return nil, err
	}
	for _, l := range append(both, plain, traced) {
		res.absorb(l)
	}
	if len(both[0].samples) == 0 || len(plain.samples) == 0 || len(traced.samples) == 0 {
		return nil, fmt.Errorf("%s: traced pass completed no request (first error: %v)", wl.name, res.firstErr)
	}
	timeMetrics(res, both)

	// The probes and the replay below use the engine set-up built: it is
	// immutable, still warm, and on mutate still valid beside the engines
	// the writer's rebuilds swapped in (those start without lazy artifacts).
	eng, served := st.eng, o.weightsAt(0)

	// Fill-in probes: kinds with too few cache misses among the recorded
	// cycles, and the hit path if nothing was served from the cache.
	misses := make(map[api.Kind]int)
	hits := 0
	for _, sm := range traced.samples {
		if sm.cached {
			hits++
		} else {
			misses[sm.kind]++
		}
	}
	fill := fillInRequests(cfg, wl, func(kind api.Kind) bool { return misses[kind] < cfg.fillIn })
	probed, err := probe(ctx, d, eng, fill, hits == 0, cfg)
	if err != nil {
		return nil, err
	}
	res.absorb(probed)
	httpMetrics(res, rec, plain.samples, traced.samples, probed.samples, before, now)

	// The replay sample: a prefix of the reader's schedule plus the fill-ins.
	reader := 0
	if wl.mutate {
		reader = 1
	}
	gen := newOpGen(wl, cfg.n, cfg.seed, reader)
	var sample []api.Request
	for i := 0; i < cfg.replay; i++ {
		sample = append(sample, gen.next())
	}
	sample = append(sample, fillInRequests(cfg, wl, func(kind api.Kind) bool { return !wl.uses(kind) })...)
	if err := layerPass(ctx, cfg, res, rec, eng, g, served, sample); err != nil {
		return nil, err
	}

	// Update -> fresh answer over HTTP beside the reader: the mutate
	// workload measured it in phase A; the others run one cycle of it here.
	if !wl.mutate {
		var reads *opLog
		if fresh, reads, err = freshProbe(ctx, cfg, d, eng, g); err != nil {
			return nil, err
		}
		res.absorb(reads)
	}
	res.absorb(&fresh.opLog)
	var secs []float64
	for _, f := range fresh.fresh {
		secs = append(secs, f.dur.Seconds())
		rec.add("update_fresh", f.start, f.start.Add(f.dur), 0, 0, 0)
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("%s: no update cycle completed (first error: %v)", wl.name, fresh.firstErr)
	}
	res.set("update_fresh_s", "s", median(secs))

	// The server's own share of the handler span: what the engine did not spend.
	for _, kind := range allKinds {
		k := string(kind)
		res.set("server.self_ms_"+k, "ms", res.Metrics["server.handler_ms_"+k].Value-res.Metrics["ccsp.query_ms_"+k].Value)
	}

	path := filepath.Join(cfg.outDir, "trace-"+wl.name+".json")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	res.tracePath = path
	res.Correct = res.Failed == 0
	return res, nil
}

// timeMetrics derives the time metrics a client of the daemon sees from
// the logs of phase A, one per connection. They carry the names issue 11
// gave them as end-to-end metrics and no bound (README). A closed-loop
// connection is busy for the sum of its latencies, so its throughput is
// its ops over that sum, whether or not it had to wait for the other
// party at the end of a cycle.
func timeMetrics(res *result, logs []*opLog) {
	var lat []float64
	qps := 0.0
	for _, l := range logs {
		var busy time.Duration
		for _, sm := range l.samples {
			lat = append(lat, msOf(sm.lat))
			busy += sm.lat
		}
		qps += float64(len(l.samples)) / busy.Seconds()
	}
	sort.Float64s(lat)
	res.set("throughput_qps", "1/s", qps)
	res.set("query_p50_ms", "ms", quantile(lat, 0.50))
	res.set("query_p95_ms", "ms", quantile(lat, 0.95))
}

// fillInRequests returns cfg.fillIn requests (half as many for apsp, whose
// answers are megabytes) of every kind that want selects.
func fillInRequests(cfg config, wl *workload, want func(api.Kind) bool) []api.Request {
	// A stream of its own with uniform keys: every probe must miss.
	gen := newOpGen(&workload{name: wl.name + "/fill-in"}, cfg.n, cfg.seed, 0)
	var out []api.Request
	for _, kind := range allKinds {
		if !want(kind) {
			continue
		}
		count := cfg.fillIn
		if kind == api.KindAPSP {
			count = (count + 1) / 2
		}
		for i := 0; i < count; i++ {
			out = append(out, gen.request(kind))
		}
	}
	return out
}

// probe serves eng behind a second, cache-enabled daemon handler and
// sends the fill-in requests (each a first-time key, so a miss) and, if
// asked, one distance source several times (every repeat a hit).
func probe(ctx context.Context, d *driver, eng *ccsp.Engine, fill []api.Request, wantHits bool, cfg config) (*opLog, error) {
	log := &opLog{}
	if len(fill) == 0 && !wantHits {
		return log, nil
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return nil, fmt.Errorf("probe server: %w", err)
	}
	hs, base, done, err := serveHandler(d.rec.wrap(srv.Handler()))
	if err != nil {
		return nil, err
	}
	defer stopServer(hs, done)
	c := newConn(base)
	defer c.close()
	d.rec.on.Store(true)
	defer d.rec.on.Store(false)
	for _, req := range fill {
		d.query(c, req, log)
	}
	if wantHits {
		for to := 1; to <= 2*cfg.fillIn+1; to++ {
			d.query(c, api.Request{Kind: api.KindDistance, Distance: &api.DistanceParams{From: 0, To: to}}, log)
		}
	}
	return log, nil
}

// httpMetrics derives the client.* and server.* metrics from the recorded
// cycles of phase B and the probes. Per-kind metrics describe the full
// path, so they use the cache misses; server.hit_ms uses the hits.
func httpMetrics(res *result, rec *recorder, plain, traced, probed []opSample, before, now scrape) {
	var all, overhead, hit []float64
	for _, sm := range traced {
		all = append(all, msOf(sm.lat))
		if h, ok := rec.handlerSpan(sm.tag); ok {
			overhead = append(overhead, msOf(sm.lat-h))
		}
	}
	sort.Float64s(all)
	res.set("client.p99_ms", "ms", quantile(all, 0.99))
	res.set("client.overhead_ms", "ms", median(overhead))

	lat := make(map[api.Kind][]float64)
	dec := make(map[api.Kind][]float64)
	hnd := make(map[api.Kind][]float64)
	for _, sm := range append(append([]opSample(nil), traced...), probed...) {
		h, ok := rec.handlerSpan(sm.tag)
		if !ok {
			continue
		}
		if sm.cached {
			hit = append(hit, msOf(h))
			continue
		}
		lat[sm.kind] = append(lat[sm.kind], msOf(sm.lat))
		dec[sm.kind] = append(dec[sm.kind], msOf(sm.decode))
		hnd[sm.kind] = append(hnd[sm.kind], msOf(h))
	}
	for _, kind := range allKinds {
		res.set("client."+string(kind)+"_p50_ms", "ms", median(lat[kind]))
		res.set("client.decode_ms_"+string(kind), "ms", median(dec[kind]))
		res.set("server.handler_ms_"+string(kind), "ms", median(hnd[kind]))
	}
	res.set("server.hit_ms", "ms", median(hit))

	ratio := 0.0
	if lookups := (now.hits - before.hits) + (now.misses - before.misses); lookups > 0 {
		ratio = (now.hits - before.hits) / lookups
	}
	res.set("server.cache_hit_ratio", "ratio", ratio)
	res.set("server.shed_total", "count", now.shed-before.shed)
	res.set("server.inflight_peak", "count", now.peak)

	p50 := func(samples []opSample) float64 {
		v := make([]float64, len(samples))
		for i, sm := range samples {
			v[i] = msOf(sm.lat)
		}
		return median(v)
	}
	res.set("trace.overhead_pct", "%", 100*(p50(traced)-p50(plain))/p50(plain))
}

// freshProbe runs one cycle of the mutate workload (the writer beside
// client B's reads) on a dynamic wrapper of eng, for the workloads that are
// not mutate themselves.
func freshProbe(ctx context.Context, cfg config, d *driver, eng *ccsp.Engine, g *testGraph) (*writerLog, *opLog, error) {
	wl, err := findWorkload("mutate")
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{Deferred: true, CacheSize: wl.cacheSize})
	if err != nil {
		return nil, nil, fmt.Errorf("fresh probe: %w", err)
	}
	dyn := ccsp.NewDynamicEngine(eng)
	defer dyn.Close()
	if err := srv.AddDynamicGraph("", dyn); err != nil {
		return nil, nil, fmt.Errorf("fresh probe: %w", err)
	}
	srv.SetReady()
	hs, base, done, err := serveHandler(srv.Handler())
	if err != nil {
		return nil, nil, err
	}
	defer stopServer(hs, done)
	s := d.open(wl, g, cfg.seed, base, 1)
	defer s.close()
	reads := s.mutate(cfg.reads, func() bool { return true })
	return s.writer, reads, nil
}

type step struct {
	rec    *recorder
	parent int64
}

// run records fn as a child span of the section and returns its duration.
func (s step) run(name string, fn func()) time.Duration { return s.rec.timed(name, s.parent, fn) }

// section opens a parent span for a group of layer calls; the returned
// func closes it.
func section(rec *recorder, name string) (step, func()) {
	id := rec.nextID()
	start := time.Now()
	return step{rec, id}, func() { rec.add(name, start, time.Now(), 0, 0, id) }
}

func inSet(n int, sources []int) []bool {
	in := make([]bool, n)
	for _, s := range sources {
		in[s] = true
	}
	return in
}

// layerPass times each layer from outside, around calls into its public
// functions, on the harness's own weight matrix, BuildDirect artifact and
// merged G∪H matrix; only the eps/2 artifact of the apsp layer is read
// back from the engine's snapshot instead of being built a second time.
func layerPass(ctx context.Context, cfg config, res *result, rec *recorder, eng *ccsp.Engine, g *testGraph, weights []int64, sample []api.Request) error {
	n := g.n
	ig := g.internal(weights)
	sr := ig.AugSemiring()
	w := ig.WeightMatrix()
	var err error
	check := func(e error) {
		if err == nil {
			err = e
		}
	}

	// Build path.
	build, endBuild := section(rec, "layers.build")
	var art *hopset.Artifact
	took := build.run("hopset.build_direct", func() {
		var e error
		art, e = hopset.BuildDirect(ctx, sr, w, hopset.Practical(epsilon), 0)
		check(e)
	})
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	res.set("hopset.build_direct_s", "s", took.Seconds())
	res.set("hopset.edges", "count", float64(art.Edges()))
	res.set("hopset.beta", "count", float64(art.Beta))
	a1 := 0
	for _, in := range art.InA1 {
		if in {
			a1++
		}
	}
	res.set("hopset.a1_size", "count", float64(a1))

	var knear *matrix.Mat[semiring.WH]
	took = build.run("disttools.knearest_all", func() {
		var e error
		knear, e = disttools.KNearestAll[semiring.WH](ctx, sr, w, art.K, 0)
		check(e)
	})
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	res.set("disttools.knearest_all_s", "s", took.Seconds())
	sets := make([][]int32, n)
	for v, row := range knear.Rows {
		for _, e := range row {
			sets[v] = append(sets[v], e.Col)
		}
	}
	res.set("hitting.greedy_ms", "ms", msOf(build.run("hitting.greedy", func() { hitting.Greedy(n, sets) })))

	var gh *matrix.Mat[semiring.WH]
	res.set("mssp.merge_gh_ms", "ms", msOf(build.run("mssp.merge_gh", func() { gh = mssp.MergeGH(sr, w, art) })))
	took = build.run("matrix.merge_rows", func() {
		for v := 0; v < n; v++ {
			matrix.MergeRows(sr, w.Rows[v], art.Rows[v])
		}
	})
	res.set("matrix.merge_rows_us", "us", float64(took.Microseconds())/float64(n))

	hops := 4 * art.Beta
	if hops > n {
		hops = n
	}
	took = build.run("disttools.source_detect_all", func() {
		_, e := disttools.SourceDetectAll[semiring.WH](ctx, sr, gh, art.InA1, hops, 0)
		check(e)
	})
	res.set("disttools.source_detect_all_s", "s", took.Seconds())

	var prod *matrix.Mat[semiring.WH]
	took = build.run("matmul.kernel_mul_wh", func() { prod = matmul.KernelMulWH(gh, gh, 0) })
	products := 0
	for _, row := range gh.Rows {
		for _, e := range row {
			products += len(gh.Rows[e.Col])
		}
	}
	res.set("matmul.kernel_mul_wh_ms", "ms", msOf(took))
	res.set("matmul.products", "count", float64(products))
	res.set("matmul.mproducts_per_s", "1/s", float64(products)/1e6/took.Seconds())
	res.set("matmul.kernel_mul_filtered_wh_ms", "ms", msOf(build.run("matmul.kernel_mul_filtered_wh", func() {
		matmul.KernelMulFilteredWH(sr, w, w, art.K, 0)
	})))
	took = build.run("matrix.filter_row", func() {
		for _, row := range prod.Rows {
			matrix.FilterRow[semiring.WH](sr, row, art.K)
		}
	})
	res.set("matrix.filter_row_us", "us", float64(took.Microseconds())/float64(n))
	endBuild()

	// Snapshot.
	snap, endSnap := section(rec, "layers.snapshot")
	var buf bytes.Buffer
	res.set("snapshot.save_ms", "ms", msOf(snap.run("snapshot.save", func() { check(eng.Save(&buf)) })))
	res.set("snapshot.bytes", "B", float64(buf.Len()))
	res.set("snapshot.load_ms", "ms", msOf(snap.run("snapshot.load", func() {
		_, e := ccsp.LoadEngine(ctx, bytes.NewReader(buf.Bytes()))
		check(e)
	})))
	endSnap()
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	decoded, e := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if e != nil {
		return fmt.Errorf("layers: %w", e)
	}
	var half *hopset.Artifact
	for _, sa := range decoded.Artifacts {
		if sa.Variant == 0 && sa.Params.Eps == epsilon/2 {
			half = sa.Art
		}
	}
	if half == nil {
		return fmt.Errorf("layers: the engine's snapshot holds no eps/2 artifact")
	}
	ghHalf := mssp.MergeGH(sr, w, half)

	// Query path: the replay sample through Engine.Query, and beside each
	// mssp the bare kernel call on the same sources.
	query, endQuery := section(rec, "layers.query")
	queryMs := make(map[api.Kind][]float64)
	allocs := make(map[api.Kind][]float64)
	kb := make(map[api.Kind][]float64)
	var shapeMSSP, runQ8, restrictedQ1, restrictedQ8, apspDirect []float64
	var decodeNs, keyNs time.Duration
	beta := art.Beta
	if beta > n {
		beta = n
	}
	for _, req := range sample {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		took := query.run("ccsp.query."+string(req.Kind), func() {
			_, e := eng.Query(ctx, req)
			check(e)
		})
		runtime.ReadMemStats(&m1)
		queryMs[req.Kind] = append(queryMs[req.Kind], msOf(took))
		allocs[req.Kind] = append(allocs[req.Kind], float64(m1.Mallocs-m0.Mallocs))
		kb[req.Kind] = append(kb[req.Kind], float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		switch req.Kind {
		case api.KindMSSP:
			in := inSet(n, req.MSSP.Sources)
			bare := query.run("mssp.run_direct_merged", func() {
				_, e := mssp.RunDirectMerged(ctx, gh, art.Beta, in, 0)
				check(e)
			})
			runQ8 = append(runQ8, msOf(bare))
			shapeMSSP = append(shapeMSSP, msOf(took-bare))
			restrictedQ8 = append(restrictedQ8, msOf(query.run("disttools.source_detect_restricted", func() {
				_, e := disttools.SourceDetectAllRestricted(ctx, gh, in, beta, 0)
				check(e)
			})))
		case api.KindDistance:
			in := inSet(n, []int{req.Distance.From})
			restrictedQ1 = append(restrictedQ1, msOf(query.run("disttools.source_detect_restricted", func() {
				_, e := disttools.SourceDetectAllRestricted(ctx, gh, in, beta, 0)
				check(e)
			})))
		case api.KindAPSP:
			if len(apspDirect) < 3 {
				apspDirect = append(apspDirect, msOf(query.run("apsp.weighted_direct", func() {
					_, e := apsp.TwoPlusEpsWeightedDirect(ctx, sr, w, ghHalf, half.Beta, 0)
					check(e)
				})))
			}
		}
		body, e := json.Marshal(req)
		check(e)
		const reps = 50
		decodeNs += query.run("api.decode", func() {
			for i := 0; i < reps; i++ {
				_, e := api.DecodeRequest(bytes.NewReader(body))
				check(e)
			}
		}) / reps
		keyNs += query.run("api.cache_key", func() {
			for i := 0; i < reps; i++ {
				_ = req.CacheKeyAt(1)
			}
		}) / reps
	}
	endQuery()
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	mean := func(v []float64) float64 {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	for _, kind := range allKinds {
		res.set("ccsp.query_ms_"+string(kind), "ms", median(queryMs[kind]))
		res.set("ccsp.allocs_per_query_"+string(kind), "count", mean(allocs[kind]))
		res.set("ccsp.kb_per_query_"+string(kind), "KiB", mean(kb[kind]))
	}
	res.set("ccsp.shape_ms_mssp", "ms", median(shapeMSSP))
	res.set("apsp.weighted_direct_ms", "ms", median(apspDirect))
	res.set("ccsp.shape_ms_apsp", "ms", median(queryMs[api.KindAPSP])-median(apspDirect))
	res.set("mssp.run_direct_merged_ms_q8", "ms", median(runQ8))
	res.set("disttools.source_detect_restricted_ms_q1", "ms", median(restrictedQ1))
	res.set("disttools.source_detect_restricted_ms_q8", "ms", median(restrictedQ8))
	res.set("api.decode_us", "us", float64(decodeNs.Nanoseconds())/1e3/float64(len(sample)))
	res.set("api.cache_key_us", "us", float64(keyNs.Nanoseconds())/1e3/float64(len(sample)))

	// Update path, in process, no reader: DynamicEngine.Update against a
	// plain NewEngine on the same mutated graph.
	dynamic, endDynamic := section(rec, "layers.dynamic")
	idx, nw := newUpdateGen(g, cfg.seed+1).next()
	mutated := append([]int64(nil), weights...)
	ups := make([]ccsp.EdgeUpdate, len(idx))
	for i, e := range idx {
		mutated[e] = nw[i]
		ups[i] = ccsp.EdgeUpdate{U: g.edges[e].u, V: g.edges[e].v, W: nw[i]}
	}
	dyn := ccsp.NewDynamicEngine(eng)
	sync := dynamic.run("dynamic.update_sync", func() {
		_, e := dyn.Update(ctx, ups)
		check(e)
	})
	dyn.Close()
	gr := g.public(mutated)
	fresh := dynamic.run("ccsp.new_engine", func() {
		_, e := ccsp.NewEngine(ctx, gr, eng.Options())
		check(e)
	})
	endDynamic()
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	res.set("dynamic.update_sync_s", "s", sync.Seconds())
	res.set("dynamic.overhead_ms", "ms", msOf(sync-fresh))
	return nil
}
