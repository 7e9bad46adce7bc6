package ccsp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/congestedclique/ccsp/api"
)

// batchConcurrency bounds the worker group a RunPlans call fans its runs out
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
	resps := make([]api.Response, len(reqs))
	plans := make([]Plan, 0, len(reqs))
	at := make([]int, 0, len(reqs)) // plans[j] answers reqs[at[j]]
	for i, req := range reqs {
		p, err := e.Plan(req)
		if err != nil {
			resps[i] = api.Response{Kind: req.Kind, Graph: req.Graph, Error: APIError(err)}
			continue
		}
		plans, at = append(plans, p), append(at, i)
	}
	out, _, err := RunPlans(ctx, plans)
	if err != nil {
		return nil, err
	}
	for j, i := range at {
		resps[i] = plans[j].Finish(out[j], false)
	}
	return resps, nil
}

// RunPlans runs every distinct plan once: positions are grouped by
// Plan.Key, each group runs on a bounded worker group, and every position
// receives its group's response as Plan.Run returned it - unfinished, the
// answer a cache keeps under the key; the caller finishes each with its
// own plan - or the run's typed error (Response.Error; Finish keeps it).
// Keys are graph- and epoch-qualified, so plans made on different engines
// may ride one call. runs is the number of engine runs made. The error is
// non-nil only when ctx is already dead on entry and nothing ran.
func RunPlans(ctx context.Context, plans []Plan) (resps []api.Response, runs int, err error) {
	if err := ctxErr(ctx); err != nil {
		return nil, 0, fmt.Errorf("ccsp: batch: %w", err)
	}
	var groups [][]int // positions sharing one key, in first-seen order
	byKey := make(map[string]int)
	for i, p := range plans {
		key := p.Key()
		g, ok := byKey[key]
		if !ok {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}

	resps = make([]api.Response, len(plans))
	sem := make(chan struct{}, batchConcurrency(len(groups)))
	var wg sync.WaitGroup
	for _, members := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp, err := plans[members[0]].Run(ctx)
			if err != nil {
				resp = &api.Response{Error: APIError(err)}
			}
			// Positions of a group share the run's read-only result
			// slices; the per-position response values stay independent.
			for _, i := range members {
				resps[i] = *resp
			}
		}()
	}
	wg.Wait()
	return resps, len(groups), nil
}
