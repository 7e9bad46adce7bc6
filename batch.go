package ccsp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/congestedclique/ccsp/api"
)

// batchConcurrency bounds the worker group a Batch call fans queries out
// over. Each query is itself a parallel simulator run (Options.Workers),
// so the bound stays modest: enough to overlap lazy artifact builds with
// independent queries without oversubscribing the host.
func batchConcurrency(groups int) int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w > groups {
		w = groups
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Batch answers many api.Requests against the one preprocessed engine -
// the paper's amortization claim (Theorems 3, 28, 31; EXPERIMENTS.md E14)
// as an API: the hopset artifacts are charged once, in PreprocessStats,
// no matter how many requests ride the batch.
//
// Semantics:
//
//   - Responses[i] always answers reqs[i]; the slice has len(reqs).
//   - Requests with the same plan (Engine.Plan: auto APSP variants
//     resolved, a distance rewritten to its one-source MSSP) run once;
//     each position finishes its own answer out of the shared run.
//   - Distinct requests run concurrently across a bounded worker group.
//     Requests needing the same preprocessing artifact still build it
//     exactly once: concurrent misses coalesce on the in-flight build
//     (DESIGN.md §10), so a batch of q MSSP queries charges the hopset
//     phases once, matching the E14 accounting.
//   - Failures are per-request: an invalid, over-budget, or canceled
//     query reports a typed api.Error in its own response and the rest
//     of the batch completes. Batch's own error is reserved for "the
//     batch never ran": it is non-nil only when ctx is already dead on
//     entry.
//
// Each response's Stats covers that request's query run only; merge with
// PreprocessStats for end-to-end accounting, exactly as for direct
// Engine calls.
func (e *Engine) Batch(ctx context.Context, reqs []api.Request) ([]api.Response, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("ccsp: batch: %w", err)
	}
	resps := make([]api.Response, len(reqs))

	// Group positions by plan key; each group runs once, and every
	// position keeps its own plan to finish the shared response with.
	plans := make([]Plan, len(reqs))
	var order []string
	groups := make(map[string][]int)
	for i, req := range reqs {
		var err error
		if plans[i], err = e.Plan(req); err != nil {
			resps[i] = api.Response{Kind: req.Kind, Graph: req.Graph, Error: APIError(err)}
			continue
		}
		key := plans[i].Key()
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}

	sem := make(chan struct{}, batchConcurrency(len(order)))
	var wg sync.WaitGroup
	for _, key := range order {
		indices := groups[key]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp, err := plans[indices[0]].Run(ctx)
			if err != nil {
				resp = &api.Response{Error: APIError(err)}
			}
			// Positions of a group share the run's read-only result
			// slices; the per-position response values stay independent.
			for _, i := range indices {
				resps[i] = plans[i].Finish(*resp, false)
			}
		}()
	}
	wg.Wait()
	return resps, nil
}
