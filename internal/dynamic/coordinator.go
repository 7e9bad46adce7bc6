package dynamic

import (
	"context"
	"errors"
	"sync"
)

// ErrClosed is returned by Stage and Wait after Close.
var ErrClosed = errors.New("dynamic: coordinator closed")

// BuildFunc rebuilds whatever the coordinator guards for one
// generation: it is called with the generation's epoch number and the
// coalesced updates staged for it, off the caller's goroutine, one call
// at a time. A nil return means the generation is published (its epoch
// becomes visible to Wait); an error means the generation is dropped -
// its updates are NOT retried, the previous generation keeps serving,
// and waiters for that epoch receive the error.
type BuildFunc func(ctx context.Context, epoch uint64, ups []Update) error

// failure records one dropped generation so its waiters can learn why.
type failure struct {
	epoch uint64
	err   error
}

// maxFailures bounds the failure ring. Best-effort by design: a Wait
// arriving more than maxFailures generations after its epoch failed
// finds the record evicted and (if a later generation has published)
// returns success. Waiters in practice block before their generation
// completes, so eviction is theoretical.
const maxFailures = 64

// Coordinator serializes background rebuilds over a monotonically
// increasing epoch sequence. Updates staged while a build is in flight
// coalesce into a single next generation (one rebuild absorbs them
// all); there is never more than one build running. Epoch numbers are
// assigned once and never reused - a failed generation's number is
// skipped forever, so the published sequence is monotone but not
// necessarily contiguous.
type Coordinator struct {
	build  BuildFunc
	ctx    context.Context // lifecycle: canceled by Close, governs builds
	cancel context.CancelFunc

	mu           sync.Mutex
	pending      []Update
	pendingEpoch uint64 // epoch assigned to the pending batch; 0 = none staged
	seq          uint64 // last epoch ever assigned (monotone, never reused)
	published    uint64 // last epoch whose build succeeded
	building     bool   // a builder goroutine is alive
	inBuild      int    // updates in the generation the builder is on right now
	fails        []failure
	change       chan struct{} // closed and replaced at every publish/fail/Close
	closed       bool
}

// New returns a coordinator whose epoch sequence starts after start
// (the wrapped state's current epoch): the first staged generation gets
// start+1.
func New(start uint64, build BuildFunc) *Coordinator {
	ctx, cancel := context.WithCancel(context.Background())
	return &Coordinator{
		build:     build,
		ctx:       ctx,
		cancel:    cancel,
		seq:       start,
		published: start,
		change:    make(chan struct{}),
	}
}

// Stage appends ups to the pending generation (creating it - and
// assigning its epoch - if none is staged) and ensures a builder is
// running. It returns the epoch the updates will be visible at, for use
// with Wait. Stage never blocks on the build itself.
func (c *Coordinator) Stage(ups []Update) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if c.pendingEpoch == 0 {
		c.seq++
		c.pendingEpoch = c.seq
	}
	c.pending = append(c.pending, ups...)
	if !c.building {
		c.building = true
		go c.run()
	}
	return c.pendingEpoch, nil
}

// run is the builder goroutine: it drains pending generations one at a
// time until none remain, publishing or recording failure after each.
func (c *Coordinator) run() {
	for {
		c.mu.Lock()
		if len(c.pending) == 0 || c.closed {
			c.building = false
			c.mu.Unlock()
			return
		}
		ups := c.pending
		epoch := c.pendingEpoch
		c.pending = nil
		c.pendingEpoch = 0
		c.inBuild = len(ups)
		c.mu.Unlock()

		err := c.build(c.ctx, epoch, ups)

		c.mu.Lock()
		c.inBuild = 0
		if err != nil {
			c.fails = append(c.fails, failure{epoch: epoch, err: err})
			if len(c.fails) > maxFailures {
				c.fails = c.fails[len(c.fails)-maxFailures:]
			}
		} else if epoch > c.published {
			c.published = epoch
		}
		close(c.change)
		c.change = make(chan struct{})
		c.mu.Unlock()
	}
}

// Wait blocks until the generation with the given epoch is published
// (nil), its build failed (the build's error), the coordinator closes
// (ErrClosed), or ctx fires (its error). Waiting for an already
// published epoch returns immediately.
func (c *Coordinator) Wait(ctx context.Context, epoch uint64) error {
	for {
		c.mu.Lock()
		// Failure first: a later generation may have published past a
		// dropped epoch, and "published >= epoch" must not mask that
		// this epoch's updates never landed.
		for _, f := range c.fails {
			if f.epoch == epoch {
				c.mu.Unlock()
				return f.err
			}
		}
		if c.published >= epoch {
			c.mu.Unlock()
			return nil
		}
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		ch := c.change
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Pending reports how many staged updates are not yet visible: those
// waiting for the next generation plus those in the generation being
// built, until it publishes or fails.
func (c *Coordinator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending) + c.inBuild
}

// Close rejects further staging and cancels the in-flight build (which
// unwinds at its next cancellation point and is recorded as a failed
// generation). Waiters are released with ErrClosed or the canceled
// build's error. Close is idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.change)
	c.change = make(chan struct{})
	c.mu.Unlock()
	c.cancel()
}
