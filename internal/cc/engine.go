package cc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// DefaultMaxRounds bounds the total rounds of a run as a runaway guard.
const DefaultMaxRounds = 1 << 21

// Config configures a simulation run.
type Config struct {
	// N is the number of nodes. Must be >= 1.
	N int
	// MaxRounds bounds total rounds; 0 means DefaultMaxRounds.
	MaxRounds int
	// Workers is the number of shards each collective body is split
	// into, the rows of one pool.RunEach pass. It is an upper bound on
	// the goroutines a body fans out to: the pass takes only its share
	// of the cores beside other passes in the process (DESIGN.md §13).
	// 0 means runtime.GOMAXPROCS(0) (falling back to one shard for
	// cliques smaller than autoParMinN, where fan-out overhead
	// dominates); 1 runs every body as one shard on the coordinator
	// goroutine. Every value produces identical results and identical
	// deterministic statistics - only wall-clock time (and the
	// observational Stats.CollectiveTime) changes. Negative values are
	// rejected.
	Workers int
}

// Program is a node program. It runs once per node; the same function is
// executed by all n nodes, distinguished by nd.ID. A non-nil error aborts
// the whole run.
type Program func(nd *Node) error

// ErrAborted is returned (wrapped) when a run is torn down because some node
// failed.
var ErrAborted = errors.New("cc: run aborted")

// ErrCanceled is returned (wrapped) when a run is torn down because its
// context was canceled or its deadline expired. The returned error also
// wraps the context's own error, so errors.Is matches both ErrCanceled and
// context.Canceled/context.DeadlineExceeded.
var ErrCanceled = errors.New("cc: run canceled")

// ErrRoundLimit is returned (wrapped) when a run exceeds Config.MaxRounds.
var ErrRoundLimit = errors.New("cc: round budget exceeded")

// canceled wraps the context's error under ErrCanceled so callers can
// errors.Is-match either the cc sentinel or the context sentinel.
func canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

type reqKind uint8

const (
	reqSync reqKind = iota + 1
	reqBcast
	reqRoute
	reqSort
	reqCharge
	reqPhase
	reqExit
)

func (k reqKind) String() string {
	switch k {
	case reqSync:
		return "sync"
	case reqBcast:
		return "broadcast"
	case reqRoute:
		return "route"
	case reqSort:
		return "sort"
	case reqCharge:
		return "charge"
	case reqPhase:
		return "phase"
	case reqExit:
		return "exit"
	default:
		return fmt.Sprintf("reqKind(%d)", uint8(k))
	}
}

type request struct {
	node    int
	kind    reqKind
	tag     string // charge tag; also consistency-checked across a collective
	rounds  int    // charge amount
	packets []Packet
	bval    int64
	recs    []Rec
	err     error // exit status
}

type response struct {
	msgs      []Msg
	vals      []int64 // broadcast result, shared read-only across nodes
	recs      []Rec
	batchSize int // sort: global batch size (node i holds ranks [i*batchSize, ...))
	total     int // sort: total records
	err       error
}

type engine struct {
	n         int
	cfg       Config
	ctx       context.Context
	workers   int // shards per collective body
	reqs      chan *request
	resps     []chan response
	stats     Stats
	batch     []*request
	batchSize int
	curPhase  string
}

// Run executes prog on a fresh n-node Congested Clique and returns the
// communication statistics. Node programs communicate through collective
// operations on *Node; outputs are typically written to caller-owned slices
// indexed by node ID (disjoint writes, so no synchronization is needed).
//
// Cancellation: ctx is checked at every barrier step (before each
// collective executes) and between the stages of the sync, route and sort
// bodies, at every worker count. When ctx is canceled or its deadline
// expires, the run tears down cleanly - every node program unwinds, all
// goroutines exit - and Run returns the Stats accumulated so far (a
// consistent partial prefix of the run) together with an error wrapping
// both ErrCanceled and the context's own sentinel.
// Barrier granularity bounds the cancellation latency: one in-flight
// collective may complete before the check fires (DESIGN.md §10).
// A run that completes without ctx firing is byte-identical - results and
// all deterministic Stats fields - to one launched with context.Background.
func Run(ctx context.Context, cfg Config, prog Program) (Stats, error) {
	if cfg.N < 1 {
		return Stats{}, fmt.Errorf("cc: invalid N=%d", cfg.N)
	}
	if err := ctx.Err(); err != nil {
		return Stats{N: cfg.N, Charged: make(map[string]int)}, canceled(ctx)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.Workers < 0 {
		return Stats{}, fmt.Errorf("cc: invalid Workers=%d", cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if cfg.N < autoParMinN {
			workers = 1
		}
	}
	if workers > cfg.N {
		workers = cfg.N
	}
	e := &engine{
		n:       cfg.N,
		cfg:     cfg,
		ctx:     ctx,
		workers: workers,
		reqs:    make(chan *request, cfg.N),
		resps:   make([]chan response, cfg.N),
		batch:   make([]*request, cfg.N),
		stats:   Stats{N: cfg.N, Charged: make(map[string]int)},
	}
	for v := 0; v < cfg.N; v++ {
		e.resps[v] = make(chan response, 1)
	}

	var wg sync.WaitGroup
	wg.Add(cfg.N)
	for v := 0; v < cfg.N; v++ {
		nd := &Node{ID: v, N: cfg.N, eng: e}
		go func() {
			defer wg.Done()
			e.reqs <- &request{node: nd.ID, kind: reqExit, err: runNode(nd, prog)}
		}()
	}

	err := e.coordinate()
	wg.Wait()
	return e.stats, err
}

// runNode executes the program for one node, converting panics (including
// the engine's internal abort signal) into errors.
func runNode(nd *Node, prog Program) (err error) {
	defer func() {
		r := recover()
		switch r := r.(type) {
		case nil:
		case abortSignal:
			err = r.err
		default:
			err = fmt.Errorf("cc: node %d panicked: %v\n%s", nd.ID, r, debug.Stack())
		}
	}()
	return prog(nd)
}

// abortSignal is panicked by Node collectives when the engine reports an
// error; runNode converts it back to an error.
type abortSignal struct{ err error }

// coordinate is the engine's control loop: it collects one request per live
// node, validates that they form a consistent collective, executes it, and
// responds. It returns when every node has exited.
//
// Cancellation enters here: between collectives the loop selects on
// ctx.Done(), and a fired context becomes the run's failure exactly like a
// node error - pending collectives are failed, every subsequent request is
// answered with the abort, and the loop drains until all node goroutines
// have unwound. The barrier-step check lives in execute; the collective
// bodies check again between their stages (ctxStep, parallel.go).
func (e *engine) coordinate() error {
	live := e.n
	var failure error
	done := e.ctx.Done()
	for live > 0 {
		var r *request
		select {
		case r = <-e.reqs:
		case <-done:
			done = nil // fire once; drain on the reqs path from here on
			if failure == nil {
				failure = canceled(e.ctx)
				e.failPending(failure)
			}
			continue
		}
		if r.kind == reqExit {
			live--
			if r.err != nil && failure == nil {
				failure = r.err
			}
			if failure == nil && e.batchSize > 0 {
				failure = fmt.Errorf("cc: node %d exited while %d node(s) wait in a %v collective", r.node, e.batchSize, e.batch0().kind)
			}
			if failure != nil {
				// Tear down: fail any nodes currently blocked in a
				// collective so they can unwind and exit.
				e.failPending(failure)
			}
			continue
		}
		if failure != nil {
			e.resps[r.node] <- response{err: fmt.Errorf("%w: %w", ErrAborted, failure)}
			continue
		}
		if e.batch[r.node] != nil {
			failure = fmt.Errorf("cc: node %d submitted two collectives without awaiting a response", r.node)
			e.failPending(failure)
			continue
		}
		e.batch[r.node] = r
		e.batchSize++
		if e.batchSize < live {
			continue
		}
		// A collective must involve every node: completing one after some
		// node already exited is a protocol violation regardless of
		// request arrival order.
		if live < e.n {
			failure = fmt.Errorf("cc: %v collective after %d node(s) exited (all nodes must run the same collective sequence)", e.batch0().kind, e.n-live)
			e.failPending(failure)
			continue
		}
		if err := e.execute(); err != nil {
			failure = err
			e.failPending(failure)
		}
	}
	return failure
}

func (e *engine) batch0() *request {
	for _, r := range e.batch {
		if r != nil {
			return r
		}
	}
	return nil
}

func (e *engine) failPending(err error) {
	for v, r := range e.batch {
		if r != nil {
			e.batch[v] = nil
			e.batchSize--
			e.resps[v] <- response{err: fmt.Errorf("%w: %w", ErrAborted, err)}
		}
	}
}

// execute runs one full collective. All slots in e.batch are non-nil for
// live nodes; exited nodes cannot have pending slots (coordinate errors out
// in that case), so a complete batch covers exactly the live nodes.
func (e *engine) execute() error {
	first := e.batch0()
	for _, r := range e.batch {
		if r == nil {
			continue
		}
		if r.kind != first.kind || r.tag != first.tag {
			return fmt.Errorf("cc: mismatched collectives: node %d called %v(%q) while node %d called %v(%q)",
				first.node, first.kind, first.tag, r.node, r.kind, r.tag)
		}
	}
	// Barrier-step cancellation check (the bodies re-check between their
	// stages): a fired context aborts before the collective executes, so
	// the stats prefix stays consistent.
	if e.ctx.Err() != nil {
		return canceled(e.ctx)
	}
	before := e.stats.TotalRounds()
	start := time.Now()
	var err error
	switch first.kind {
	case reqSync:
		err = e.execSync()
	case reqBcast:
		err = e.execBcast()
	case reqRoute:
		err = e.execRoute()
	case reqSort:
		err = e.execSort()
	case reqCharge:
		err = e.execCharge()
	case reqPhase:
		err = e.execPhase(first.tag)
	default:
		err = fmt.Errorf("cc: unknown collective %v", first.kind)
	}
	if err != nil {
		return err
	}
	e.stats.addTime(first.kind.String(), time.Since(start))
	if delta := e.stats.TotalRounds() - before; delta > 0 {
		if e.stats.Phases == nil {
			e.stats.Phases = make(map[string]int)
		}
		e.stats.Phases[e.curPhase] += delta
	}
	if total := e.stats.TotalRounds(); total > e.cfg.MaxRounds {
		return fmt.Errorf("%w: %d > MaxRounds=%d", ErrRoundLimit, total, e.cfg.MaxRounds)
	}
	return nil
}

// execPhase switches round attribution to a new phase label (free: no
// communication).
func (e *engine) execPhase(tag string) error {
	e.curPhase = tag
	e.respond(func(int) response { return response{} })
	return nil
}

// respond delivers responses and clears the batch.
func (e *engine) respond(mk func(v int) response) {
	for v, r := range e.batch {
		if r == nil {
			continue
		}
		e.batch[v] = nil
		e.batchSize--
		e.resps[v] <- mk(v)
	}
}

// execCharge charges rounds for a primitive used as a black box with a cited
// bound (e.g. the hitting-set construction of [52], Lemma 4). All nodes must
// agree on tag and amount.
func (e *engine) execCharge() error {
	first := e.batch0()
	for _, r := range e.batch {
		if r != nil && r.rounds != first.rounds {
			return fmt.Errorf("cc: mismatched charge amounts for tag %q: %d vs %d", first.tag, first.rounds, r.rounds)
		}
	}
	if first.rounds < 0 {
		return fmt.Errorf("cc: negative charge %d for tag %q", first.rounds, first.tag)
	}
	e.stats.Charged[first.tag] += first.rounds
	e.respond(func(int) response { return response{} })
	return nil
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
