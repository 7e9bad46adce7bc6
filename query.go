package ccsp

import (
	"context"
	"fmt"
	"time"

	"github.com/congestedclique/ccsp/api"
)

// Plan is the executable form of one api.Request on one engine: the
// request validated and rewritten to its canonical form, so that
// equivalent requests share a cache entry and an engine run. It is the
// one canonicalisation under Engine.Query, Engine.Batch and the serving
// daemon. Two rewrites happen at planning time, both of them the paper's
// own equivalences:
//
//   - a KindDistance request becomes the one-source MSSP on G ∪ H that
//     answers it (Theorem 3) plus the projection of the pair out of that
//     answer, so distance(2,9), distance(2,5) and mssp[2] are one run;
//   - a KindAPSP request with the auto variant resolves to the concrete
//     algorithm the graph selects (Theorem 31 on unit weights, Theorem 28
//     otherwise), so "apsp" and the variant it means are one run.
//
// Planning is idempotent: planning a plan's own Request changes nothing.
// A Plan belongs to the engine that made it - and so to that engine's
// graph generation; its methods are safe for concurrent use.
type Plan struct {
	eng *Engine
	req api.Request // as asked: Finish answers this
	run api.Request // as run: the canonical form, what Key encodes
}

// Plan validates req once and canonicalises it. Errors keep the typed
// taxonomy: structural problems wrap api.ErrMalformed, and a distance
// target out of range is ErrInvalidSource here, before any run, where the
// MSSP would only have range-checked the source.
func (e *Engine) Plan(req api.Request) (Plan, error) {
	if err := req.Validate(); err != nil {
		return Plan{}, err
	}
	p := Plan{eng: e, req: req, run: req}
	switch req.Kind {
	case api.KindDistance:
		if to := req.Distance.To; to < 0 || to >= e.gr.N() {
			return Plan{}, fmt.Errorf("%w: node %d out of range [0,%d)", ErrInvalidSource, to, e.gr.N())
		}
		p.run = api.MSSP(req.Distance.From).On(req.Graph)
	case api.KindAPSP:
		p.run = api.APSP(e.ResolveAPSPVariant(req.Variant())).On(req.Graph)
	}
	return p, nil
}

// Request returns the canonical request the plan runs.
func (p Plan) Request() api.Request { return p.run }

// Key returns the canonical encoding of the plan's request qualified by
// the engine's epoch (api.Request.CacheKeyAt): the key response caches
// and batch dedup share. The epoch is part of the key because the engine
// is one immutable graph generation - a key made at epoch E can only ever
// match plans made on that same generation, so an answer never outlives
// the graph it was computed on.
func (p Plan) Key() string { return p.run.CacheKeyAt(p.eng.epoch) }

// Run executes the plan's canonical request and returns its response in
// wire form (distances use api.Unreachable = -1 for disconnected pairs),
// not yet finished: the answer a cache keeps under Key, read-only from here
// on. Run owns the result the engine method hands it, so the wire
// sentinels are written into that result in place, not into a copy. Errors
// wrap the ccsp sentinels (ErrCanceled, ErrRoundLimit, ErrInvalidSource,
// ErrInvalidOption) exactly as the direct Engine methods do.
func (p Plan) Run(ctx context.Context) (*api.Response, error) {
	resp, _, err := p.runLent(ctx, false)
	return resp, err
}

// runLent is Run, lent when lend is set: the response's one large field -
// an mssp or apsp answer's rows over the detection plane or estimate
// table, a knearest or source_detection answer's lists over their neighbor
// backing - is cut from buffers and headers taken from the pools, and
// release hands them all back (Answer's release). Nobody else holds them,
// so a caller that keeps nothing once the response is written may call
// it. Without lend the answer is owned, allocated to size, and release is
// keepAll, as it is for every other kind.
func (p Plan) runLent(ctx context.Context, lend bool) (*api.Response, func(), error) {
	e, req := p.eng, p.run
	defer observeQuery(time.Now())
	// The engine serves exactly one graph; the Graph field is a serving-
	// layer routing concern, echoed back so merged fan-out responses stay
	// attributable.
	resp := &api.Response{Kind: req.Kind, Graph: req.Graph}
	var stats Stats
	release := keepAll
	switch req.Kind {
	case api.KindSSSP:
		res, err := e.SSSP(ctx, req.SSSP.Source)
		if err != nil {
			return nil, nil, err
		}
		resp.SSSP = &api.SSSPResult{Source: res.Source, Dist: wireVec(res.Dist), Iterations: res.Iterations}
		stats = res.Stats
	case api.KindMSSP:
		res, lent, err := e.mssp(ctx, req.MSSP.Sources, lend)
		if err != nil {
			return nil, nil, err
		}
		resp.MSSP = &api.MSSPResult{Sources: res.Sources, Dist: wireMat(res.Dist)}
		stats, release = res.Stats, lent
	case api.KindAPSP:
		res, lent, err := e.apsp(ctx, req.APSP.Variant, lend)
		if err != nil {
			return nil, nil, err
		}
		resp.APSP = &api.APSPResult{Variant: req.APSP.Variant, Dist: wireMat(res.Dist)}
		stats, release = res.Stats, lent
	case api.KindDiameter:
		res, err := e.Diameter(ctx)
		if err != nil {
			return nil, nil, err
		}
		resp.Diameter = &api.DiameterResult{Estimate: res.Estimate}
		stats = res.Stats
	case api.KindKNearest:
		res, lent, err := e.knearest(ctx, req.KNearest.K, lend)
		if err != nil {
			return nil, nil, err
		}
		resp.KNearest = &api.KNearestResult{K: req.KNearest.K, Neighbors: res.Neighbors}
		stats, release = res.Stats, lent
	case api.KindSourceDetection:
		q := req.SourceDetection
		res, lent, err := e.sourceDetection(ctx, q.Sources, q.D, q.K, lend)
		if err != nil {
			return nil, nil, err
		}
		resp.SourceDetection = &api.SourceDetectionResult{D: q.D, K: q.K, Detected: res.Detected}
		stats, release = res.Stats, lent
	}
	resp.Stats = wireStats(stats)
	return resp, release, nil
}

// Finish turns a response to the plan's canonical request - fresh from
// Run, or from a cache (cached true) - into the answer to the request
// that was planned: it stamps the cache flag and projects a distance
// pair out of its MSSP. An error response (a failed batch position)
// keeps the outward kind and the error.
func (p Plan) Finish(resp api.Response, cached bool) api.Response {
	if resp.Error != nil {
		return api.Response{Kind: p.req.Kind, Graph: p.req.Graph, Error: resp.Error}
	}
	if pair := p.req.Distance; pair != nil {
		return p.FinishDistance(resp.MSSP.Dist[pair.To][0], resp.Stats, cached)
	}
	resp.Cached = cached
	return resp
}

// FinishDistance is Finish for a distance plan, from the one cell of the
// canonical run it reads - d, the run's wire distance at the pair's target -
// and the run's stats: the projection of a pair out of its one-source MSSP,
// for a caller that kept the run's column and not the run (a response
// cache). Finish and Answer project through it too.
func (p Plan) FinishDistance(d int64, stats *api.Stats, cached bool) api.Response {
	return api.Response{Kind: api.KindDistance, Graph: p.req.Graph, Distance: distanceResult(p.req.Distance, d), Stats: stats, Cached: cached}
}

// Answer is Finish(Run, false) for a caller that keeps nothing of the
// response once it is written: the same response, byte for byte, and the
// same errors. Only a distance takes another way - Run would shape the
// whole n×1 MSSP that a cache keeps under Key for Finish to read one cell
// of, so Answer reads that cell straight from the detection plane and hands
// the plane back (Engine.distance). A caller that keeps a copy of the
// canonical run (a response cache) answers the canonical plan - the
// engine's Plan of this plan's Request - and finishes the request's own
// answer out of that.
//
// The answer is lent: release, nil exactly when err is not, hands an mssp
// answer's detection plane or an apsp answer's estimate table back to the
// kernels' pool and a knearest or source_detection answer's neighbor
// backing back to the engine's, each with the row or list headers cut over
// it, and does nothing for the other kinds. Call it at most once, after
// the last read of the response - from then on its rows are another
// query's scratch. Not calling it is always safe: the answer is then owned
// like any Engine result, though a buffer or headers taken from a pool may
// be up to twice as large as the answer needs (Engine.Query goes through
// answer, which takes nothing from a pool).
func (p Plan) Answer(ctx context.Context) (resp *api.Response, release func(), err error) {
	return p.answer(ctx, true)
}

// answer is Answer, with lend as runLent's: false for a caller that keeps
// the answer (Engine.Query).
func (p Plan) answer(ctx context.Context, lend bool) (*api.Response, func(), error) {
	pair := p.req.Distance
	if pair == nil {
		resp, release, err := p.runLent(ctx, lend)
		if err != nil {
			return nil, nil, err
		}
		*resp = p.Finish(*resp, false)
		return resp, release, nil
	}
	defer observeQuery(time.Now())
	d, stats, err := p.eng.distance(ctx, pair.From, pair.To)
	if err != nil {
		return nil, nil, err
	}
	if d >= Unreachable {
		d = api.Unreachable
	}
	resp := p.FinishDistance(d, wireStats(stats), false)
	return &resp, keepAll, nil
}

// keepAll is the release of an answer that lends nothing.
func keepAll() {}

// distanceResult is the answer to pair at wire distance d.
func distanceResult(pair *api.DistanceParams, d int64) *api.DistanceResult {
	return &api.DistanceResult{From: pair.From, To: pair.To, Distance: d, Reachable: d != api.Unreachable}
}

// Query answers one typed api.Request: plan, then answer. It is the
// dispatcher behind cmd/ccsp and, through the same steps, the serving
// daemon's POST /v1/query and the client package. The response is the
// wire form of what the matching Engine method returns; a KindAPSP
// response reports the concrete algorithm that ran. It is the caller's to
// keep: Query never releases what Answer lends.
func (e *Engine) Query(ctx context.Context, req api.Request) (*api.Response, error) {
	p, err := e.Plan(req)
	if err != nil {
		return nil, err
	}
	resp, _, err := p.answer(ctx, false)
	return resp, err
}

// ResolveAPSPVariant maps the auto variant to the concrete algorithm the
// engine's graph selects (Theorem 31 for unit weights, Theorem 28
// otherwise); explicit variants pass through. Engine.Plan uses it so that
// requests are keyed and run by the algorithm that actually answers them.
func (e *Engine) ResolveAPSPVariant(v api.APSPVariant) api.APSPVariant {
	if v == api.APSPAuto || v == "" {
		if e.gr.Unweighted() {
			return api.APSPUnweighted
		}
		return api.APSPWeighted
	}
	return v
}

// wireVec rewrites dist to wire form in place - the in-process Unreachable
// sentinel becomes the wire's -1 - and returns it. Only Plan.Run's body
// (runLent) calls it, on a result the engine method just computed for it
// and retains no reference to (DESIGN.md §13, "the result path").
func wireVec(dist []int64) []int64 {
	for i, d := range dist {
		if d >= Unreachable {
			dist[i] = api.Unreachable
		}
	}
	return dist
}

// wireMat is wireVec for every row.
func wireMat(dist [][]int64) [][]int64 {
	for _, row := range dist {
		wireVec(row)
	}
	return dist
}

// wireStats converts a run's Stats to the wire core.
func wireStats(s Stats) *api.Stats {
	return &api.Stats{TotalRounds: s.TotalRounds, SimRounds: s.SimRounds, Messages: s.Messages, Words: s.Words}
}
