package disttools

import (
	"context"
	"sync/atomic"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// pollSettles is how many nodes one certified search settles between two
// polls of ctx: a quarter of a detection sweep's rows at n = 1024, so the
// searches poll at least as often per unit of work as the sweeps they
// stand in for.
const pollSettles = 256

// certPass is what the running CertifiedPlane pass shares with its
// searches. It lives in the pooled search state, and so do the closures
// the pass hands pool.RunEach, made once per state, so that a warm pass
// allocates none.
type certPass struct {
	srcs  []int32 // the sources, ascending: search j starts at srcs[j]
	plane []int64 // cell u·|S| + j is search j's W at node u
	maxH  int64   // the hop bound a settled node must keep
	m     int64   // the rank multiplier MaxH + 2: a key is W·m + H
	poll  poller
	over  atomic.Bool // a search settled a node past maxH

	newWorker func() func(j int)
}

// CertifiedPlane returns the flat row-major n×|S| plane of exact
// distances d_w(v, s) - cell v·|S| + j for the j-th source s in ascending
// order, semiring.Inf where s does not reach v - when it can prove every
// one is the weight of a path of at most maxH hops; otherwise it returns
// a nil plane and a nil error. Over a graph's weight matrix that proof is
// what makes the plane equal to a β-hop detection's over G ∪ H at
// maxH = min(β, n) (mssp.RunDirect; DESIGN.md §13, "certified cells").
//
// It runs one lexicographic search per source at k = n, the k-nearest
// searcher over the same arcs (fill), on one pass that hands each
// worker a source at a time (pool.RunEach). A search settles every node
// it reaches at its least (W, H), in rank order, and writes W into the
// plane as it settles. The first node any search settles past maxH hops
// stops every search. A search reads rows s → u where the plane's cell is
// d(v, s), so w must be symmetric, as an undirected graph's weight matrix
// is; sr's MaxH must be at least n - 2, as a graph's AugSemiring's is, so
// that a key is the exact rank of its (W, H).
//
// It polls ctx before the pass, at the start of every search and once per
// pollSettles nodes a search settles, and never again after a poll saw
// ctx done. The plane comes from the detection planes' pool and is the
// caller's (ReleasePlane); an aborted or canceled pass puts it back, and
// the search state goes back to its pool on every return.
func CertifiedPlane(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], inS []bool, maxH, workers int) ([]int64, error) {
	n := w.N
	nb, err := takeNearest(sr, n)
	if err != nil {
		return nil, err
	}
	defer nb.release()
	c := &nb.cert
	c.poll = poller{ctx: ctx}
	defer func() { c.poll.ctx, c.plane = nil, nil }()
	if c.poll.poll() {
		return nil, c.poll.err
	}
	c.srcs = c.srcs[:0]
	for v, in := range inS {
		if in {
			c.srcs = append(c.srcs, int32(v))
		}
	}
	q := len(c.srcs)
	if q == 0 {
		return []int64{}, nil // no source is a proof; nil would read as an abort
	}
	c.plane = planes.Get(n * q)
	for i := range c.plane {
		c.plane[i] = semiring.Inf
	}
	c.maxH, c.m = int64(maxH), sr.MaxH+2
	c.over.Store(false)
	nb.fill(sr, w)
	nb.taken = 0
	if c.newWorker == nil {
		c.newWorker = func() func(int) {
			s := nb.worker()
			if s.certify == nil {
				s.certify = func(j int) {
					s.settleAll(nb, j)
					s.reset()
				}
			}
			return s.certify
		}
	}
	pool.RunEach(q, workers, c.newWorker)
	plane := c.plane
	if c.poll.err != nil || c.over.Load() {
		planes.Put(plane)
		return nil, c.poll.err
	}
	return plane, nil
}

// settleAll runs search j of nb's certified pass: seeded with its source's
// row, it settles nodes in key order and writes each one's W into column
// j of the plane, unless the pass has stopped. It stops the pass when it
// settles a node past the hop bound; the source's row is the seed, so it
// relaxes every settled row but that one.
func (s *searcher) settleAll(nb *nearest, j int) {
	c := &nb.cert
	if c.over.Load() || c.poll.poll() {
		return
	}
	v, q := c.srcs[j], len(c.srcs)
	s.relax(nb, v, 0)
	settled := 0
	for {
		it, ok := s.heap.pop()
		if !ok {
			return
		}
		if it.key != s.key[it.u] {
			continue // superseded by a lower key
		}
		if settled++; settled%pollSettles == 0 && (c.over.Load() || c.poll.poll()) {
			return
		}
		wt := it.key / c.m
		if it.key-wt*c.m > c.maxH {
			c.over.Store(true)
			return
		}
		c.plane[int(it.u)*q+j] = wt
		if it.u != v {
			s.relax(nb, it.u, it.key)
		}
	}
}

// relax offers every arc of row y to the search at key ky + its rank.
func (s *searcher) relax(nb *nearest, y int32, ky int64) {
	for _, a := range nb.arcs[nb.off[y]:nb.off[y+1]] {
		c, u := ky+a.rank, a.col
		if cu := s.key[u]; c < cu {
			if cu == unreached {
				s.seen = append(s.seen, u)
			}
			s.key[u] = c
			s.heap.push(c, u)
		}
	}
}
