package ccsp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/congestedclique/ccsp/api"
)

// Query answers one typed api.Request: the single dispatcher behind the
// serving daemon's POST /v1/query, the client package, and cmd/ccsp. It
// validates the union, runs the matching Engine method, and converts the
// result to its wire form (distances use api.Unreachable = -1 for
// disconnected pairs; everything else is a value-for-value copy).
//
// A KindAPSP request with the auto variant resolves against the engine's
// graph - the response reports the concrete algorithm that ran. A
// KindDistance request runs a single-source MSSP and projects the pair
// out, exactly as the /v1/distance endpoint always has.
//
// Errors keep the typed taxonomy: structural problems wrap
// api.ErrMalformed, everything else wraps the ccsp sentinels
// (ErrCanceled, ErrRoundLimit, ErrInvalidSource, ErrInvalidOption), so
// errors.Is dispatch works identically to the direct Engine methods.
func (e *Engine) Query(ctx context.Context, req api.Request) (*api.Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	defer e.observeQuery(time.Now())
	// The engine serves exactly one graph; the Graph field is a serving-
	// layer routing concern, echoed back so merged fan-out responses stay
	// attributable.
	resp := &api.Response{Kind: req.Kind, Graph: req.Graph}
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
		res, err := e.MSSP(ctx, req.MSSP.Sources)
		if err != nil {
			return nil, err
		}
		resp.MSSP = &api.MSSPResult{Sources: res.Sources, Dist: wireMat(res.Dist)}
		stats = res.Stats
	case api.KindAPSP:
		variant := e.ResolveAPSPVariant(req.Variant())
		res, err := e.apspByVariant(ctx, variant)
		if err != nil {
			return nil, err
		}
		resp.APSP = &api.APSPResult{Variant: variant, Dist: wireMat(res.Dist)}
		stats = res.Stats
	case api.KindDistance:
		from, to := req.Distance.From, req.Distance.To
		if to < 0 || to >= e.gr.N() {
			return nil, fmt.Errorf("%w: node %d out of range [0,%d)", ErrInvalidSource, to, e.gr.N())
		}
		res, err := e.MSSP(ctx, []int{from})
		if err != nil {
			return nil, err
		}
		d := wireDist(res.Dist[to][0])
		resp.Distance = &api.DistanceResult{From: from, To: to, Distance: d, Reachable: d != api.Unreachable}
		stats = res.Stats
	case api.KindDiameter:
		res, err := e.Diameter(ctx)
		if err != nil {
			return nil, err
		}
		resp.Diameter = &api.DiameterResult{Estimate: res.Estimate}
		stats = res.Stats
	case api.KindKNearest:
		res, err := e.KNearest(ctx, req.KNearest.K)
		if err != nil {
			return nil, err
		}
		resp.KNearest = &api.KNearestResult{K: req.KNearest.K, Neighbors: wireNeighborLists(res.Neighbors)}
		stats = res.Stats
	case api.KindSourceDetection:
		p := req.SourceDetection
		res, err := e.SourceDetection(ctx, p.Sources, p.D, p.K)
		if err != nil {
			return nil, err
		}
		resp.SourceDetection = &api.SourceDetectionResult{D: p.D, K: p.K, Detected: wireNeighborLists(res.Detected)}
		stats = res.Stats
	default:
		// Validate() guarantees a known kind; this is unreachable.
		return nil, fmt.Errorf("%w: unknown kind %q", api.ErrMalformed, req.Kind)
	}
	resp.Stats = wireStats(stats)
	return resp, nil
}

// ResolveAPSPVariant maps the auto variant to the concrete algorithm the
// engine's graph selects (Theorem 31 for unit weights, Theorem 28
// otherwise); explicit variants pass through. Serving layers use it to
// key caches by the algorithm that actually runs.
func (e *Engine) ResolveAPSPVariant(v api.APSPVariant) api.APSPVariant {
	if v == api.APSPAuto || v == "" {
		if e.gr.Unweighted() {
			return api.APSPUnweighted
		}
		return api.APSPWeighted
	}
	return v
}

// APIError converts an error from the typed taxonomy into its wire form.
// The context sentinels are checked first (ErrCanceled wraps them): an
// expired deadline and a canceled caller are different codes, the same
// distinction the HTTP layer draws between 504 and 499. Unclassified
// errors map to CodeInternal.
func APIError(err error) *api.Error {
	if err == nil {
		return nil
	}
	code := api.CodeInternal
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = api.CodeDeadline
	case errors.Is(err, context.Canceled), errors.Is(err, ErrCanceled):
		code = api.CodeCanceled
	case errors.Is(err, ErrRoundLimit):
		code = api.CodeRoundLimit
	case errors.Is(err, ErrInvalidSource):
		code = api.CodeInvalidSource
	case errors.Is(err, ErrInvalidOption):
		code = api.CodeInvalidOption
	case errors.Is(err, ErrUnknownGraph):
		code = api.CodeUnknownGraph
	case errors.Is(err, ErrOverloaded):
		code = api.CodeOverloaded
	case errors.Is(err, ErrUnavailable):
		code = api.CodeUnavailable
	case errors.Is(err, api.ErrMalformed):
		code = api.CodeMalformed
	}
	return &api.Error{Code: code, Message: err.Error()}
}

// wireDist maps the in-process Unreachable sentinel to the wire's -1.
func wireDist(d int64) int64 {
	if d >= Unreachable {
		return api.Unreachable
	}
	return d
}

func wireVec(dist []int64) []int64 {
	out := make([]int64, len(dist))
	for i, d := range dist {
		out[i] = wireDist(d)
	}
	return out
}

func wireMat(dist [][]int64) [][]int64 {
	out := make([][]int64, len(dist))
	for i, row := range dist {
		out[i] = wireVec(row)
	}
	return out
}

func wireNeighborLists(lists [][]Neighbor) [][]api.Neighbor {
	out := make([][]api.Neighbor, len(lists))
	for v, nbs := range lists {
		row := make([]api.Neighbor, len(nbs))
		for i, nb := range nbs {
			row[i] = api.Neighbor{Node: nb.Node, Dist: nb.Dist, Hops: nb.Hops, FirstHop: nb.FirstHop}
		}
		out[v] = row
	}
	return out
}

// wireStats converts a run's Stats to the wire core.
func wireStats(s Stats) *api.Stats {
	return &api.Stats{TotalRounds: s.TotalRounds, SimRounds: s.SimRounds, Messages: s.Messages, Words: s.Words}
}
