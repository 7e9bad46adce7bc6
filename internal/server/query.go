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
// cache entry, an auto APSP variant resolves before keying). A lent
// answer goes back only after writeAnswer returns: by then the whole body
// has been encoded and handed to the connection, and nothing reads the
// answer again.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.requirePOST(w, r, "") {
		return
	}
	req, err := api.DecodeRequest(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	if err != nil {
		s.fail(w, req.Kind, err)
		return
	}
	a, release, err := s.execute(r.Context(), req)
	if err != nil {
		s.fail(w, req.Kind, err)
		return
	}
	writeAnswer(w, a)
	release()
}

// handleBatch serves POST /v1/batch: many requests, one bounded set of
// engine runs. Per-request failures (malformed unions, out-of-range nodes,
// round-limit trips) answer in place with typed api.Errors - the batch
// itself still returns 200. The whole batch runs under one request
// timeout; a top-level error (unreadable body, oversized batch, context
// dead before any query ran) is the only way to get a non-200.
//
// Cache interplay: every position goes through the same lookup as a
// single query, hits answer from the cache (Cached: true; a stored body is
// spliced into the batch's as it is), distinct misses dedup onto one
// engine run each, and each completed run refills the cache once for the
// next request - so a hot batch converges to zero simulator runs.
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

	// Hits and unplannable requests answer in place; the misses go to
	// ccsp.RunPlans, which runs each distinct plan once (keys are graph-
	// and epoch-qualified, so plans made on different engines ride the
	// one call). Positions sharing a run keep their own plans: two
	// distance requests from one source (or a distance and a plain
	// single-source MSSP) coalesce onto one run yet finish different
	// responses out of it.
	answers := make([]answer, len(br.Requests))
	var (
		plans []ccsp.Plan
		at    []int // plans[j] answers br.Requests[at[j]]
	)
	for i, req := range br.Requests {
		_, p, hit, err := s.lookup(req)
		switch {
		case err != nil:
			answers[i].resp = api.Response{Kind: req.Kind, Graph: req.Graph, Error: ccsp.APIError(err)}
		case hit != nil:
			answers[i] = hitAnswer(p, req, hit)
		default:
			plans, at = append(plans, p), append(at, i)
		}
	}

	if len(plans) > 0 {
		// The whole batch runs under one timeout and takes one admission
		// slot however many positions and graphs it carries: its runs
		// share RunPlans' one bounded worker group, and each run's row
		// passes take only their share of the cores (DESIGN.md §13).
		ctx, admitted, err := s.enter(r.Context())
		if err != nil {
			s.fail(w, "", err)
			return
		}
		out, runs, err := ccsp.RunPlans(ctx, plans)
		admitted.leave()
		if err != nil {
			// Only "the batch never ran" (context dead on entry) lands here.
			s.fail(w, "", err)
			return
		}
		s.batchRuns.Add(int64(runs))
		var stored map[string]bool // keys this batch's runs have entered
		if s.cacheCap > 0 {
			stored = make(map[string]bool)
		}
		for j, i := range at {
			answers[i].resp = plans[j].Finish(out[j], false)
			if out[j].Error != nil {
				continue
			}
			s.queries.Inc()
			if stored != nil {
				if key := plans[j].Key(); !stored[key] {
					stored[key] = true
					s.cache.Put(key, newEntry(out[j]))
				}
			}
		}
	}
	// Per-position failures return inside a 200, but they still feed the
	// serving stats: a batch workload going bad must show up in
	// /v1/stats exactly like failing single queries would.
	for i := range answers {
		switch e := answers[i].resp.Error; {
		case e == nil:
		case e.Code == api.CodeDeadline:
			s.timeouts.Inc()
		default:
			s.errors.Inc()
		}
	}
	writeBatch(w, answers)
}
