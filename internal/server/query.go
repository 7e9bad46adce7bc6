// POST /v1/query and /v1/batch: the typed query plane (DESIGN.md §11).
package server

import (
	"fmt"
	"net/http"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

const (
	// maxQueryBytes caps a /v1/query body. A request is a small tagged
	// union - the only unbounded field is a source list, and 1 MiB already
	// admits ~10^5 sources (far past the √n regime Theorem 3 serves) - so
	// the cap bounds decoder allocations without constraining real use.
	maxQueryBytes = 1 << 20
	// maxBatchBytes caps a /v1/batch body.
	maxBatchBytes = 8 << 20
	// maxBatchRequests caps the number of requests one batch may carry.
	maxBatchRequests = 256
)

// errorBody is the JSON envelope of a failed /v1/query or /v1/batch
// request: a typed api.Error (machine-readable code + message) under an
// "error" key, plus the echoed request kind when one was decodable.
type errorBody struct {
	Kind  api.Kind   `json:"kind,omitempty"`
	Error *api.Error `json:"error"`
}

func writeAPIError(w http.ResponseWriter, code int, kind api.Kind, apiErr *api.Error) {
	writeJSON(w, code, errorBody{Kind: kind, Error: apiErr})
}

// requirePOST answers anything but a POST with the typed 405 and reports
// whether the handler may proceed.
func (s *Server) requirePOST(w http.ResponseWriter, r *http.Request, kind api.Kind) bool {
	if r.Method == http.MethodPost {
		return true
	}
	s.errors.Inc()
	writeAPIError(w, http.StatusMethodNotAllowed, kind,
		&api.Error{Code: api.CodeMalformed, Message: "use POST"})
	return false
}

// fail answers a request-level failure: count it (timeouts apart from
// errors), attach Retry-After to an admission shed, and write the typed
// error body under the status the taxonomy maps it to.
func (s *Server) fail(w http.ResponseWriter, kind api.Kind, err error) {
	setRetryAfter(w, err)
	writeAPIError(w, s.countError(err), kind, ccsp.APIError(err))
}

// handleQuery serves POST /v1/query: one api.Request in, one
// api.Response out (a distance request shares the single-source MSSP
// cache entry, an auto APSP variant resolves before keying).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.requirePOST(w, r, "") {
		return
	}
	req, err := api.DecodeRequest(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	if err != nil {
		s.fail(w, req.Kind, err)
		return
	}
	resp, err := s.execute(r.Context(), req)
	if err != nil {
		s.fail(w, req.Kind, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /v1/batch: many requests, one bounded engine
// batch. Per-request failures (malformed unions, out-of-range nodes,
// round-limit trips) answer in place with typed api.Errors - the batch
// itself still returns 200. The whole batch runs under one request
// timeout; a top-level error (unreadable body, oversized batch, context
// dead before any query ran) is the only way to get a non-200.
//
// Cache interplay: every position goes through the same lookup as a
// single query, hits answer from the cache (Cached: true), distinct
// misses dedup onto one engine run each, and completed runs refill the
// cache for the next request - so a hot batch converges to zero
// simulator runs.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.requirePOST(w, r, "") {
		return
	}
	br, err := api.DecodeBatchRequest(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err != nil {
		s.fail(w, "", err)
		return
	}
	if len(br.Requests) == 0 {
		s.errors.Inc()
		writeAPIError(w, http.StatusBadRequest, "",
			&api.Error{Code: api.CodeMalformed, Message: "empty batch"})
		return
	}
	if len(br.Requests) > maxBatchRequests {
		s.errors.Inc()
		writeAPIError(w, http.StatusBadRequest, "",
			&api.Error{Code: api.CodeMalformed,
				Message: fmt.Sprintf("batch of %d requests exceeds the %d-request limit", len(br.Requests), maxBatchRequests)})
		return
	}

	s.batches.Inc()
	s.batchReqs.Add(int64(len(br.Requests)))

	// Hits and unplannable requests answer in place; the misses group by
	// plan key for one engine run each - one cache entry to refill, one
	// batch_engine_runs tick - and the runs by engine for one Engine.Batch
	// each (keys are graph- and epoch-qualified, so a key belongs to
	// exactly one engine). Positions sharing a key share the run but keep
	// their own plans: two distance requests from one source (or a
	// distance and a plain single-source MSSP) coalesce onto one run yet
	// finish different responses out of it.
	type missGroup struct {
		members []int // positions in br.Requests sharing one plan key
	}
	type engineBatch struct {
		eng    *ccsp.Engine
		runs   []api.Request
		groups []*missGroup // groups[j] is answered by runs[j]
	}
	resps := make([]api.Response, len(br.Requests))
	plans := make([]ccsp.Plan, len(br.Requests))
	var batches []*engineBatch
	byEngine := make(map[*ccsp.Engine]*engineBatch)
	byKey := make(map[string]*missGroup)
	for i, req := range br.Requests {
		var hit bool
		plans[i], resps[i], hit, err = s.lookup(req)
		if err != nil {
			resps[i] = api.Response{Kind: req.Kind, Graph: req.Graph, Error: ccsp.APIError(err)}
		}
		if err != nil || hit {
			continue
		}
		p := plans[i]
		key := p.Key()
		g, ok := byKey[key]
		if !ok {
			g = &missGroup{}
			byKey[key] = g
			b, ok := byEngine[p.Engine()]
			if !ok {
				b = &engineBatch{eng: p.Engine()}
				byEngine[b.eng] = b
				batches = append(batches, b)
			}
			b.runs = append(b.runs, p.Request())
			b.groups = append(b.groups, g)
		}
		g.members = append(g.members, i)
	}

	if len(batches) > 0 {
		// The whole batch runs under one timeout and takes one admission
		// slot: its engines run one after another (each Engine.Batch
		// still fans out over its own bounded worker group), so it
		// occupies one engine's worth of CPU however many positions it
		// carries.
		ctx, leave, err := s.enter(r.Context())
		if err != nil {
			s.fail(w, "", err)
			return
		}
		s.batchRuns.Add(int64(len(byKey)))
		for _, b := range batches {
			out, err := b.eng.Batch(ctx, b.runs)
			if err != nil {
				// Only "the batch never ran" (context dead on entry) lands here.
				leave()
				s.fail(w, "", err)
				return
			}
			for j, g := range b.groups {
				if out[j].Error == nil {
					s.store(plans[g.members[0]], out[j])
				}
				for _, i := range g.members {
					resps[i] = plans[i].Finish(out[j], false)
				}
			}
		}
		leave()
	}
	// Per-position failures return inside a 200, but they still feed the
	// serving stats: a batch workload going bad must show up in
	// /v1/stats exactly like failing single queries would.
	for _, resp := range resps {
		if resp.Error == nil {
			continue
		}
		if resp.Error.Code == api.CodeDeadline {
			s.timeouts.Inc()
		} else {
			s.errors.Inc()
		}
	}
	writeJSON(w, http.StatusOK, api.BatchResponse{Responses: resps})
}
