// POST /v1/update and GET /v1/epoch: the mutation plane (DESIGN.md §16).
package server

import (
	"fmt"
	"net/http"

	"github.com/congestedclique/ccsp/api"
)

const (
	// maxUpdateBytes caps a /v1/update body; an update is three small
	// integers, so 1 MiB admits tens of thousands per batch.
	maxUpdateBytes = 1 << 20
	// maxUpdatesPerBatch caps the updates one request may carry, for the
	// same reason maxBatchRequests exists: bound the work one request
	// can stage.
	maxUpdatesPerBatch = 4096
)

// handleUpdate serves POST /v1/update: one api.UpdateRequest staged as
// a single graph generation on the target graph. By default
// the handler blocks (under the request context plus the server
// timeout) until the background rebuild publishes the generation, so a
// 200 means queries already reflect the batch; Async requests answer
// as soon as the batch is staged, with Pending set.
//
// The rebuild itself does not pass admission control: it runs on the
// coordinator's single builder goroutine - there is never more than
// one per graph - so it cannot multiply under request pressure the way
// query work can.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !s.requirePOST(w, r, api.KindUpdate) {
		return
	}
	ur, err := api.DecodeUpdateRequest(http.MaxBytesReader(w, r.Body, maxUpdateBytes))
	if err != nil {
		s.fail(w, api.KindUpdate, err)
		return
	}
	if len(ur.Updates) > maxUpdatesPerBatch {
		s.errors.Inc()
		writeAPIError(w, http.StatusBadRequest, api.KindUpdate,
			&api.Error{Code: api.CodeMalformed,
				Message: fmt.Sprintf("batch of %d updates exceeds the %d-update limit", len(ur.Updates), maxUpdatesPerBatch)})
		return
	}
	dyn, err := s.engineFor(ur.Graph)
	if err != nil {
		s.fail(w, api.KindUpdate, err)
		return
	}

	ctx, cancel := s.withTimeout(r.Context())
	defer cancel()
	epoch, err := dyn.ApplyUpdates(ctx, ur.Updates)
	if err != nil {
		s.fail(w, api.KindUpdate, err)
		return
	}
	s.updates.Inc()
	resp := api.UpdateResponse{Graph: ur.Graph, Epoch: epoch, Applied: len(ur.Updates)}
	if ur.Async {
		resp.Pending = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if err := dyn.Wait(ctx, epoch); err != nil {
		// The generation did not publish within this request: rebuild
		// failure drops it (503/422 by taxonomy); a fired deadline only
		// abandons the wait - the rebuild continues and the epoch may
		// still publish, observable via GET /v1/epoch.
		s.fail(w, api.KindUpdate, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEpoch serves GET /v1/epoch?graph=ID: the serving epoch of one
// graph (the default graph when the parameter is absent), plus the
// count of staged-but-unpublished updates.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	graph := r.URL.Query().Get("graph")
	if err := api.ValidateGraphID(graph); err != nil {
		s.fail(w, "", err)
		return
	}
	dyn, err := s.engineFor(graph)
	if err != nil {
		s.fail(w, "", err)
		return
	}
	writeJSON(w, http.StatusOK, api.EpochResponse{Graph: graph, Epoch: dyn.Epoch(), Pending: dyn.Pending()})
}
