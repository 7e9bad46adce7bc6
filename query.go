package ccsp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/disttools"
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
	run api.Request // as run: the canonical form, what Key encodes; a distance's is made on demand (Request)
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
	case api.KindAPSP:
		p.run = api.APSP(e.ResolveAPSPVariant(req.Variant())).On(req.Graph)
	}
	return p, nil
}

// Request returns the canonical request the plan runs. A distance plan
// makes its one-source MSSP here, on demand: Answer reads the pair's cell
// without it, so a served distance with the cache off never builds it.
func (p Plan) Request() api.Request {
	if pair := p.req.Distance; pair != nil {
		return api.MSSP(pair.From).On(p.req.Graph)
	}
	return p.run
}

// Key returns the canonical encoding of the plan's request qualified by
// the engine's epoch (api.Request.CacheKeyAt): the key response caches
// and batch dedup share. The epoch is part of the key because the engine
// is one immutable graph generation - a key made at epoch E can only ever
// match plans made on that same generation, so an answer never outlives
// the graph it was computed on.
func (p Plan) Key() string { return p.Request().CacheKeyAt(p.eng.epoch) }

// Run executes the plan's canonical request and returns its response in
// wire form (distances use api.Unreachable = -1 for disconnected pairs),
// not yet finished: the answer a cache keeps under Key, read-only from here
// on. Run owns the result the engine method hands it, so the wire
// sentinels are written into that result in place, not into a copy. Errors
// wrap the ccsp sentinels (ErrCanceled, ErrRoundLimit, ErrInvalidSource,
// ErrInvalidOption) exactly as the direct Engine methods do.
func (p Plan) Run(ctx context.Context) (*api.Response, error) {
	return p.runLent(ctx, nil)
}

// runLent is Run, lent into l unless l is nil (Answer): the response, its
// stats and an mssp answer's result structs are l's, and the response's
// one large field - an mssp or apsp answer's rows over the detection plane
// or estimate table, a knearest or source_detection answer's lists over
// their neighbor backing - is cut from buffers and headers taken from the
// pools and recorded in l, whose release hands them all back. Nobody else
// holds them, so a caller that keeps nothing once the response is written
// may release it. With l nil the answer is owned and allocated to size.
func (p Plan) runLent(ctx context.Context, l *lent) (*api.Response, error) {
	e, req := p.eng, p.Request()
	defer observeQuery(time.Now())
	// The engine serves exactly one graph; the Graph field is a serving-
	// layer routing concern, echoed back so merged fan-out responses stay
	// attributable.
	resp := l.response()
	resp.Kind, resp.Graph = req.Kind, req.Graph
	var stats Stats
	switch req.Kind {
	case api.KindSSSP:
		res, err := e.SSSP(ctx, req.SSSP.Source)
		if err != nil {
			return nil, err
		}
		resp.SSSP = &api.SSSPResult{Source: res.Source, Dist: wireVec(res.Dist), Iterations: res.Iterations}
		stats = res.Stats
	case api.KindMSSP:
		res, err := e.mssp(ctx, req.MSSP.Sources, l)
		if err != nil {
			return nil, err
		}
		resp.MSSP = l.wireMSSP()
		resp.MSSP.Sources, resp.MSSP.Dist = res.Sources, wireMat(res.Dist)
		stats = res.Stats
	case api.KindAPSP:
		res, err := e.apsp(ctx, req.APSP.Variant, l)
		if err != nil {
			return nil, err
		}
		resp.APSP = &api.APSPResult{Variant: req.APSP.Variant, Dist: wireMat(res.Dist)}
		stats = res.Stats
	case api.KindDiameter:
		res, err := e.Diameter(ctx)
		if err != nil {
			return nil, err
		}
		resp.Diameter = &api.DiameterResult{Estimate: res.Estimate}
		stats = res.Stats
	case api.KindKNearest:
		res, err := e.knearest(ctx, req.KNearest.K, l)
		if err != nil {
			return nil, err
		}
		resp.KNearest = &api.KNearestResult{K: req.KNearest.K, Neighbors: res.Neighbors}
		stats = res.Stats
	case api.KindSourceDetection:
		q := req.SourceDetection
		res, err := e.sourceDetection(ctx, q.Sources, q.D, q.K, l)
		if err != nil {
			return nil, err
		}
		resp.SourceDetection = &api.SourceDetectionResult{D: q.D, K: q.K, Detected: res.Detected}
		stats = res.Stats
	}
	resp.Stats = l.wireStats(stats)
	return resp, nil
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
	pair := distanceResult(p.req.Distance, d)
	return api.Response{Kind: api.KindDistance, Graph: p.req.Graph, Distance: &pair, Stats: stats, Cached: cached}
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
// The answer is lent: release, nil exactly when err is not, hands back the
// response's envelope - the response itself, its stats and its result
// struct, for a distance or an mssp - together with an mssp answer's
// detection plane or an apsp answer's estimate table and the row headers
// cut over it, or a knearest or source_detection answer's neighbor backing
// and the list headers cut over it (lent). Call it at most once, after the
// last read of the response - from then on all of it is another query's
// scratch. Not calling it is always safe: the answer is then owned like
// any Engine result, though a buffer or headers taken from a pool may be up
// to twice as large as the answer needs (Engine.Query goes through answer,
// which takes nothing from a pool).
func (p Plan) Answer(ctx context.Context) (resp *api.Response, release func(), err error) {
	return p.answer(ctx, true)
}

// answer is Answer, owned unless lend is set (Engine.Query keeps the
// answer): a lent answer is written into an envelope from takeLent.
func (p Plan) answer(ctx context.Context, lend bool) (*api.Response, func(), error) {
	var l *lent
	release := keepAll
	if lend {
		l = takeLent()
		release = l.release
	}
	resp, err := p.answerInto(ctx, l)
	if err != nil {
		release()
		return nil, nil, err
	}
	return resp, release, nil
}

// answerInto is answer's body, lent into l as runLent's is.
func (p Plan) answerInto(ctx context.Context, l *lent) (*api.Response, error) {
	pair := p.req.Distance
	if pair == nil {
		resp, err := p.runLent(ctx, l)
		if err != nil {
			return nil, err
		}
		*resp = p.Finish(*resp, false)
		return resp, nil
	}
	defer observeQuery(time.Now())
	d, stats, err := p.eng.distance(ctx, pair.From, pair.To)
	if err != nil {
		return nil, err
	}
	if d >= Unreachable {
		d = api.Unreachable
	}
	if l == nil {
		resp := p.FinishDistance(d, l.wireStats(stats), false)
		return &resp, nil
	}
	l.dist = distanceResult(pair, d)
	l.resp = api.Response{Kind: api.KindDistance, Graph: p.req.Graph, Distance: &l.dist, Stats: l.wireStats(stats)}
	return &l.resp, nil
}

// keepAll is the release of an answer that lends nothing.
func keepAll() {}

// distanceResult is the answer to pair at wire distance d.
func distanceResult(pair *api.DistanceParams, d int64) api.DistanceResult {
	return api.DistanceResult{From: pair.From, To: pair.To, Distance: d, Reachable: d != api.Unreachable}
}

// lent is the envelope of one lent answer (Plan.Answer) and the record of
// what it lends: the response, its stats and the result structs of a
// distance or mssp answer are its own fields, and an mssp or apsp answer's
// plane or table with the row headers over it, or a knearest or
// source_detection answer's neighbor backing with the list headers over
// it, were taken from the pools and are recorded here. release - give,
// bound once per envelope - hands all of it back, the envelope included,
// so a lent answer allocates no response, result struct, stats or release
// of its own. A nil *lent stands for an owned answer: its methods then
// allocate what they return, to size.
type lent struct {
	resp  api.Response
	stats api.Stats
	dist  api.DistanceResult
	wire  api.MSSPResult // runLent's
	mssp  MSSPResult     // Engine.mssp's

	rows    [][]int64    // from rowHeaders, over plane
	plane   []int64      // a detection plane or estimate table
	lists   [][]Neighbor // from listHeaders, over backing
	backing []Neighbor   // from neighborBackings

	release func()
}

// lentAnswers recycles envelopes that give handed back.
var lentAnswers sync.Pool

// takeLent returns an empty envelope.
func takeLent() *lent {
	if l, _ := lentAnswers.Get().(*lent); l != nil {
		return l
	}
	l := new(lent)
	l.release = l.give
	return l
}

// give hands back what l lends, then l itself, cleared so that a pooled
// envelope keeps no answer alive.
func (l *lent) give() {
	if l.plane != nil {
		giveHeaders(&rowHeaders, l.rows)
		disttools.ReleasePlane(l.plane)
	}
	if l.lists != nil {
		giveHeaders(&listHeaders, l.lists)
		neighborBackings.Put(l.backing)
	}
	*l = lent{release: l.release}
	lentAnswers.Put(l)
}

func (l *lent) response() *api.Response {
	if l == nil {
		return new(api.Response)
	}
	return &l.resp
}

func (l *lent) wireMSSP() *api.MSSPResult {
	if l == nil {
		return new(api.MSSPResult)
	}
	return &l.wire
}

func (l *lent) msspResult() *MSSPResult {
	if l == nil {
		return new(MSSPResult)
	}
	return &l.mssp
}

// wireStats is the wire form of a run's stats: l's, or a new one.
func (l *lent) wireStats(s Stats) *api.Stats {
	if l == nil {
		st := wireStats(s)
		return &st
	}
	l.stats = wireStats(s)
	return &l.stats
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
func wireStats(s Stats) api.Stats {
	return api.Stats{TotalRounds: s.TotalRounds, SimRounds: s.SimRounds, Messages: s.Messages, Words: s.Words}
}
