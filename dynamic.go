package ccsp

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/dynamic"
)

// EdgeUpdate is one edge mutation for a DynamicEngine; the in-process
// and wire forms are one type.
type EdgeUpdate = api.EdgeUpdate

// DynamicEngine serves a mutating graph from an immutable Engine behind
// an atomic pointer (DESIGN.md §16). Queries read the current engine
// with a single atomic load - they never block on writers and never see
// a half-built engine. ApplyUpdates stages mutations into a pending
// generation and kicks a background rebuild: a full preprocess of the
// mutated graph under the wrapped engine's own Options (its cost at
// n=1024 is the benchmark's update_fresh_s row, BENCHMARK.json). When
// the rebuild completes, the fresh engine - stamped with the
// generation's epoch - is swapped in atomically. Updates arriving while
// a rebuild is in flight coalesce into the next generation; there is
// never more than one rebuild running.
//
// Epochs increase monotonically and are never reused: a generation
// whose rebuild fails burns its number, keeps the previous engine
// serving, and reports the error to its Wait-ers. Because each Engine
// carries its epoch, an (engine, epoch) pair is read atomically -
// cache keys derived via api.Request.CacheKeyAt(eng.Epoch()) can never
// mix answers across generations.
type DynamicEngine struct {
	cur   atomic.Pointer[Engine]
	coord *dynamic.Coordinator
	opts  Options
}

// NewDynamicEngine wraps an already built engine. The engine's current
// epoch (0 for a fresh NewEngine, the persisted epoch for a loaded
// snapshot) seeds the generation sequence; rebuilds inherit the
// engine's Options, including its execution mode.
func NewDynamicEngine(eng *Engine) *DynamicEngine {
	d := &DynamicEngine{opts: eng.Options()}
	d.cur.Store(eng)
	d.coord = dynamic.New(eng.Epoch(), d.rebuild)
	return d
}

// Engine returns the currently serving engine. The returned engine is
// immutable and remains valid (and consistent with its own Epoch)
// after later swaps; take it once per request to get a single-epoch
// view.
func (d *DynamicEngine) Engine() *Engine { return d.cur.Load() }

// Epoch returns the epoch of the currently serving engine.
func (d *DynamicEngine) Epoch() uint64 { return d.cur.Load().Epoch() }

// Pending reports how many staged updates are not yet visible.
func (d *DynamicEngine) Pending() int { return d.coord.Pending() }

// ApplyUpdates validates and stages ups, starts (or joins) the
// background rebuild, and returns the epoch at which the updates will
// become visible - without waiting for the rebuild. Use Wait (or the
// combined Update) to block until that epoch serves. If the rebuild
// fails, the updates are dropped, the current engine keeps serving,
// and Wait on the returned epoch reports the failure.
func (d *DynamicEngine) ApplyUpdates(ctx context.Context, ups []EdgeUpdate) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, ctxErr(ctx)
	}
	if err := dynamic.Validate(d.cur.Load().gr.N(), ups); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	return d.coord.Stage(ups)
}

// Wait blocks until the given epoch is serving (nil), its rebuild
// failed (that error), the DynamicEngine is closed, or ctx fires.
func (d *DynamicEngine) Wait(ctx context.Context, epoch uint64) error {
	return d.coord.Wait(ctx, epoch)
}

// Update is ApplyUpdates followed by Wait: it returns once queries
// against Engine() reflect ups, with the epoch that serves them.
func (d *DynamicEngine) Update(ctx context.Context, ups []EdgeUpdate) (uint64, error) {
	epoch, err := d.ApplyUpdates(ctx, ups)
	if err != nil {
		return 0, err
	}
	if err := d.Wait(ctx, epoch); err != nil {
		return 0, err
	}
	return epoch, nil
}

// Close stops the background rebuilder: further ApplyUpdates fail, an
// in-flight rebuild is canceled (unwinding at its next barrier), and
// waiters are released with errors. The current engine remains valid
// for queries.
func (d *DynamicEngine) Close() { d.coord.Close() }

// rebuild is the coordinator's BuildFunc: patch the serving graph,
// preprocess it from scratch under the same Options (NewEngine's eager
// build), stamp the epoch, swap. Building from the *serving* engine's
// graph is correct because generations are serialized: the serving graph
// always reflects every previously published generation.
func (d *DynamicEngine) rebuild(ctx context.Context, epoch uint64, ups []dynamic.Update) error {
	start := time.Now()
	base := d.cur.Load()
	g2, err := dynamic.Apply(base.gr.g, ups)
	if err != nil {
		metRebuildErrors.Inc()
		return fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	// g2 is Apply's own copy, so the engine adopts it instead of
	// copying it once more, and d.opts are the serving engine's prepared
	// Options.
	eng2 := adoptEngine(g2, d.opts)
	if _, err := eng2.artifact(ctx, eng2.baseKey()); err != nil {
		metRebuildErrors.Inc()
		return err
	}
	eng2.epoch = epoch
	d.cur.Store(eng2)
	metRebuilds.Inc()
	metRebuildSeconds.ObserveDuration(time.Since(start))
	return nil
}
