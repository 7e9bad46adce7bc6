// Admission control: a bounded in-flight limit plus a short bounded
// wait queue in front of the engines (DESIGN.md §15). Engine runs are
// CPU-bound simulations - unbounded concurrency past the core count
// only inflates every request's latency until timeouts shed load for
// us, in the worst possible way. Admission control sheds early
// instead: a query that cannot get an execution slot within a short
// queue wait is rejected with a typed 503 (api.CodeOverloaded +
// Retry-After) in microseconds, so admitted requests keep their
// latency profile while the excess fails fast and retries elsewhere.
//
// Cache hits bypass admission entirely - the bound protects simulator
// and kernel work, not the LRU - and /healthz, /readyz and /v1/stats
// never queue, so probes stay honest on a saturated daemon.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/congestedclique/ccsp"
)

const (
	// defaultQueueWait bounds how long a queued query waits for an
	// execution slot before being shed.
	defaultQueueWait = time.Second
	// retryAfterHint is the Retry-After header value (in seconds) sent
	// with every overload 503: long enough for a queue-wait's worth of
	// work to drain, short enough that a retrying client converges fast.
	retryAfterHint = "1"
)

// admission is the semaphore pair implementing the bound: slots caps
// queries executing on the engines, queued caps queries waiting for a
// slot. Both are buffered channels used as counting semaphores, so the
// hot path is one non-blocking send.
type admission struct {
	wait   time.Duration
	slots  chan struct{} // execution slots (cap = MaxInFlight)
	queued chan struct{} // wait-queue slots (cap = MaxQueue)

	cur  atomic.Int64 // queries currently holding an execution slot
	peak atomic.Int64 // high-water mark of cur, for tests and /v1/stats
}

// newAdmission resolves the Config knobs: limit 0 picks the default
// (4 × GOMAXPROCS), negative disables admission entirely (nil);
// queue 0 defaults to the resolved limit, negative means no queue.
// A queued query waits defaultQueueWait.
func newAdmission(limit, queue int) *admission {
	if limit < 0 {
		return nil
	}
	if limit == 0 {
		limit = 4 * runtime.GOMAXPROCS(0)
	}
	switch {
	case queue == 0:
		queue = limit
	case queue < 0:
		queue = 0
	}
	return &admission{
		wait:   defaultQueueWait,
		slots:  make(chan struct{}, limit),
		queued: make(chan struct{}, queue),
	}
}

// acquire takes one execution slot: immediately if one is free, else
// after waiting in the bounded queue for up to the queue wait. A full
// queue or an expired wait returns a ccsp.ErrOverloaded wrap (the
// caller maps it to 503 + Retry-After); a context that dies while
// queued returns the usual cancellation wrap. Every successful acquire
// must be paired with release.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		a.admitted()
		return nil
	default:
	}
	select {
	case a.queued <- struct{}{}:
	default:
		return fmt.Errorf("%w: %d queries executing and %d queued",
			ccsp.ErrOverloaded, cap(a.slots), cap(a.queued))
	}
	defer func() { <-a.queued }()
	t := time.NewTimer(a.wait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted()
		return nil
	case <-t.C:
		return fmt.Errorf("%w: no execution slot freed within %s",
			ccsp.ErrOverloaded, a.wait)
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ccsp.ErrCanceled, ctx.Err())
	}
}

// admitted tracks the executing count and its high-water mark.
func (a *admission) admitted() {
	cur := a.cur.Add(1)
	for {
		p := a.peak.Load()
		if cur <= p || a.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// release frees one execution slot.
func (a *admission) release() {
	a.cur.Add(-1)
	<-a.slots
}

// admit is the server-level gate every engine-bound query passes:
// acquire a slot (when admission control is enabled), track the
// in-flight gauge, count sheds. A nil error must be paired with
// s.release once the engine work completes.
func (s *Server) admit(ctx context.Context) error {
	if s.adm != nil {
		if err := s.adm.acquire(ctx); err != nil {
			if errors.Is(err, ccsp.ErrOverloaded) {
				s.shed.Inc()
			}
			return err
		}
	}
	s.inflight.Inc()
	return nil
}

// release ends what admit began.
func (s *Server) release() {
	s.inflight.Dec()
	if s.adm != nil {
		s.adm.release()
	}
}
