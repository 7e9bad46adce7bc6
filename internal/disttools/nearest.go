package disttools

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// The direct path's answer to the k-nearest problem (DESIGN.md §13, "the
// fast build path", exit 5): what ⌈log₂ k⌉ ρ-filtered squarings return is
// Filter_k(D_∞), so each row is the k nodes a lexicographic Dijkstra from
// its source settles first, ties at the k-th rank broken by column.

// unreached is a search's key for a node no arc has reached.
const unreached = math.MaxInt64

// pollRows is how many rows of a search pass run between two polls of
// ctx: one block claim of the row pass (pool.RunRows).
const pollRows = pool.RowBlock

// arc is an entry of the weight matrix as a search relaxes it: its rank
// under the semiring and its column. Row y's arcs are its entries in
// order, so arc j of row y is entry j of w.Rows[y].
type arc struct {
	rank int64
	col  int32
}

// item is a heap entry: a node and the key it was pushed with.
type item struct {
	key int64
	u   int32
}

// nearest is what successive k-nearest searches over n nodes share: the
// arcs of the weight matrix, the answer slab under its header and one
// searcher per pass worker. A released one waits in a sync.Pool per
// element type, as a released (S, d, k)-detection state waits in
// kdetects, and the next search of the same n takes it over.
type nearest[E any] struct {
	n    int
	off  []int32 // row y's arcs are arcs[off[y]:off[y+1]]
	arcs []arc
	out  *matrix.Mat[E]
	slab []matrix.Entry[E] // row v's window is [v·k, v·k + k)
	k    int               // the running pass's k
	dec  func(int64) E     // and its decoder (nil: values ride beside keys)

	mu    sync.Mutex
	ws    []*searcher[E]
	taken int // searchers handed out in the running pass

	cert certPass // the running CertifiedPlane pass
}

// searcher is one pass worker's scratch: a key and a value per node, at
// rest unreached, the heap, the nodes it reached and the nodes it
// settled, in order.
type searcher[E any] struct {
	key  []int64
	val  []E
	heap radix
	seen []int32
	got  []int32
	mark []uint64 // kept columns, a bit each, while a row is emitted

	settled, relaxed int64

	certify func(j int) // its CertifiedPlane row, made once
}

// searched counts the nodes the searches have settled and the arcs they
// have relaxed since process start (SearchWork).
var searched struct{ settled, relaxed atomic.Int64 }

// SearchWork reads the process-wide search counters: the nodes k-nearest
// searches have settled and the arcs they have relaxed. It is what
// BenchmarkKNearestAll reports per op.
func SearchWork() (settled, relaxed int64) {
	return searched.settled.Load(), searched.relaxed.Load()
}

type nearestKey[E any] struct{}

var nearestPools sync.Map // nearestKey[E] → *sync.Pool of *nearest[E]

func nearestPool[E any]() *sync.Pool {
	if p, ok := nearestPools.Load(nearestKey[E]{}); ok {
		return p.(*sync.Pool)
	}
	p, _ := nearestPools.LoadOrStore(nearestKey[E]{}, new(sync.Pool))
	return p.(*sync.Pool)
}

// takeNearest returns a released nearest of n nodes, or a new one.
func takeNearest[E any](n int) *nearest[E] {
	if nb, _ := nearestPool[E]().Get().(*nearest[E]); nb != nil && nb.n == n {
		return nb
	}
	return &nearest[E]{n: n, off: make([]int32, n+1)}
}

// release gives nb back for a later search to take over. Every row nb
// handed out is dead from then on, and so is nb.
func (nb *nearest[E]) release() { nearestPool[E]().Put(nb) }

// worker hands the calling pass goroutine a searcher of its own.
func (nb *nearest[E]) worker() *searcher[E] {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	if nb.taken == len(nb.ws) {
		s := &searcher[E]{key: make([]int64, nb.n), val: make([]E, nb.n), mark: make([]uint64, (nb.n+63)/64)}
		for u := range s.key {
			s.key[u] = unreached
		}
		s.heap.init()
		nb.ws = append(nb.ws, s)
	}
	nb.taken++
	return nb.ws[nb.taken-1]
}

// knearest runs one search per row of w on a row pass and returns the
// rows, each a clipped window of nb's slab, in column order.
func (nb *nearest[E]) knearest(ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], k, workers int) (*matrix.Mat[E], error) {
	if nb.out == nil {
		nb.out = matrix.New[E](nb.n)
	}
	if cap(nb.slab) < nb.n*k {
		nb.slab = make([]matrix.Entry[E], nb.n*k)
	}
	if err := nb.pass(ctx, sr, w, k, workers, nb); err != nil {
		return nil, err
	}
	return nb.out, nil
}

// rowSink takes each row's kept nodes off a pass: got in the order
// search returns them, with the searcher whose keys they are; got and the
// keys are the searcher's until keep returns. An interface, not a func,
// so that knearest's sink, nb itself, costs a query no allocation.
type rowSink[E any] interface {
	keep(s *searcher[E], v int, got []int32)
}

// keepFunc is a func as a rowSink.
type keepFunc[E any] func(s *searcher[E], v int, got []int32)

func (f keepFunc[E]) keep(s *searcher[E], v int, got []int32) { f(s, v, got) }

// keep is knearest's row sink: row v's kept nodes as entries, in column
// order, in the row's window of nb's slab.
func (nb *nearest[E]) keep(s *searcher[E], v int, got []int32) {
	k := nb.k
	nb.out.Rows[v] = nil // the all-zero row
	if row := s.emit(got, nb.dec, nb.slab[v*k:v*k:v*k+k]); len(row) > 0 {
		nb.out.Rows[v] = slices.Clip(row)
	}
}

// pass runs one search per row of w on a row pass and hands each row's
// kept nodes to sink.
func (nb *nearest[E]) pass(ctx context.Context, sr semiring.Ordered[E], w *matrix.Mat[E], k, workers int, sink rowSink[E]) error {
	n := nb.n
	poll := poller{ctx: ctx}
	if poll.poll() {
		return poll.err
	}
	fill(nb, sr, w)
	nb.k, nb.dec = k, decoder(sr, n)
	nb.taken = 0
	pool.RunRows(n, workers, func() func(int) {
		s := nb.worker()
		return func(v int) {
			if poll.stopped(v) {
				return
			}
			sink.keep(s, v, s.search(sr, w, nb, v, k, nb.dec))
			s.reset()
		}
	})
	for _, s := range nb.ws[:nb.taken] {
		searched.settled.Add(s.settled)
		searched.relaxed.Add(s.relaxed)
		s.settled, s.relaxed = 0, 0
	}
	return poll.err
}

// fill lays w out as nb's arcs: row y's entries, ranked under sr, in
// order. sr comes in as its own type S, so a caller holding a concrete
// semiring (CertifiedPlane's AugMinPlus) does not box it.
func fill[E any, S semiring.Ordered[E]](nb *nearest[E], sr S, w *matrix.Mat[E]) {
	total := 0
	for y, row := range w.Rows {
		nb.off[y] = int32(total)
		total += len(row)
	}
	nb.off[nb.n] = int32(total)
	if cap(nb.arcs) < total {
		nb.arcs = make([]arc, total)
	}
	nb.arcs = nb.arcs[:total]
	for y, row := range w.Rows {
		as := nb.arcs[nb.off[y]:]
		for j, e := range row {
			as[j] = arc{rank: sr.Rank(e.Val), col: e.Col}
		}
	}
}

// decoder returns the value of a key when the semiring's values are their
// ranks: over AugMinPlus, while every hop count a search keeps - below n -
// stays below the rank's multiplier MaxH + 2. Otherwise it returns nil
// and searches carry values beside keys, which costs a semiring product
// and a value store per improved node: the WH searches of a §4 build run
// up to a fifth slower that way (DESIGN.md §13, exit 5).
func decoder[E any](sr semiring.Ordered[E], n int) func(int64) E {
	a, ok := any(sr).(semiring.AugMinPlus)
	if !ok || int64(n) > a.MaxH+2 {
		return nil
	}
	return any(a.Unrank).(func(int64) E)
}

// search returns the nodes of row v of Filter_k(D_∞) in the order it
// settled them, so their keys - s.key, until reset - never decrease; the
// ones tied with the k-th key come last, in column order, when they did
// not all fit. It is seeded with row v's own entries - a nil row, a node
// outside the §6.3 subgraph G', settles nothing - and settles nodes in
// key order, keys being ranks: the rank of a path is the sum of its
// entries' ranks, exactly, while hop sums stay below MaxH. Every node
// tied with the k-th key is settled too, all of them reached from lower
// keys already, and the lowest columns among them are kept (Lemma 15's
// rule). Without a decoder a node's value is the semiring sum over its
// tied candidates, so over the routed semiring it carries the least
// first hop. The k-th node and the ones after it relax nothing: an
// off-diagonal entry has H >= 1, so what they reach ranks past the k-th
// key.
func (s *searcher[E]) search(sr semiring.Ordered[E], w *matrix.Mat[E], nb *nearest[E], v, k int, dec func(int64) E) []int32 {
	for j, e := range w.Rows[v] {
		u := e.Col
		s.key[u], s.val[u] = nb.arcs[int(nb.off[v])+j].rank, e.Val
		s.seen = append(s.seen, u)
		s.heap.push(s.key[u], u)
	}
	kth := int64(unreached)
	for {
		it, ok := s.heap.pop()
		if !ok {
			break
		}
		if it.key != s.key[it.u] {
			continue // superseded by a lower key
		}
		if it.key > kth {
			break
		}
		s.got = append(s.got, it.u)
		if len(s.got) == k {
			kth = it.key
		}
		y := int(it.u)
		if len(s.got) >= k || y == v {
			continue // the source's row is the seed
		}
		ky, vy, row := it.key, s.val[y], w.Rows[y]
		as := nb.arcs[nb.off[y]:nb.off[y+1]]
		s.relaxed += int64(len(as))
		for j, a := range as {
			c, u := ky+a.rank, a.col
			switch cu := s.key[u]; {
			case c < cu:
				if cu == unreached {
					s.seen = append(s.seen, u)
				}
				s.key[u] = c
				s.heap.push(c, u)
				if dec == nil {
					s.val[u] = sr.Mul(vy, row[j].Val)
				}
			case c == cu && dec == nil:
				s.val[u] = sr.Add(s.val[u], sr.Mul(vy, row[j].Val))
			}
		}
	}
	got := s.got
	s.settled += int64(len(got))
	if len(got) > k {
		first := k - 1
		for first > 0 && s.key[got[first-1]] == kth {
			first--
		}
		slices.Sort(got[first:])
		got = got[:k]
	}
	return got
}

// reset readies s for the next search: every key it set back at
// unreached, its heap and lists empty.
func (s *searcher[E]) reset() {
	for _, u := range s.seen {
		s.key[u] = unreached
	}
	s.heap.reset()
	s.seen, s.got = s.seen[:0], s.got[:0]
}

// emit appends the kept nodes to dst in column order: through the bitmap
// while its span holds at most one word per kept node, sorted past that.
// At that bound the bitmap costs about what a sort does for 8 nodes and a
// quarter of it for 321; past it a sort of 8 nodes already wins
// (DESIGN.md §13, exit 5).
func (s *searcher[E]) emit(got []int32, dec func(int64) E, dst matrix.Row[E]) matrix.Row[E] {
	if len(got) == 0 {
		return dst
	}
	lo, hi := got[0], got[0]
	for _, u := range got {
		lo, hi = min(lo, u), max(hi, u)
	}
	if words := int(hi>>6 - lo>>6 + 1); words > len(got) {
		slices.Sort(got)
		for _, u := range got {
			dst = append(dst, s.entry(u, dec))
		}
		return dst
	}
	for _, u := range got {
		s.mark[u>>6] |= 1 << (u & 63)
	}
	for i := lo >> 6; i <= hi>>6; i++ {
		for m := s.mark[i]; m != 0; m &= m - 1 {
			u := i<<6 | int32(bits.TrailingZeros64(m))
			dst = append(dst, s.entry(u, dec))
		}
		s.mark[i] = 0
	}
	return dst
}

// entry is node u's answer entry.
func (s *searcher[E]) entry(u int32, dec func(int64) E) matrix.Entry[E] {
	if dec != nil {
		return matrix.Entry[E]{Col: u, Val: dec(s.key[u])}
	}
	return matrix.Entry[E]{Col: u, Val: s.val[u]}
}

// radix is a monotone priority queue on int64 keys (a radix heap): no key
// pushed is below the last one popped, which holds for a Dijkstra whose
// arcs have non-negative ranks. Bucket i holds the items whose key first
// differs from last at bit i-1, bucket 0 those equal to it.
type radix struct {
	last int64
	b    [65][]item
}

// bucketRoom is the room every bucket of a new radix heap starts with, cut
// from one allocation: a bucket grows on its own only past it.
const bucketRoom = 32

func (r *radix) init() {
	back := make([]item, len(r.b)*bucketRoom)
	for i := range r.b {
		r.b[i] = back[i*bucketRoom : i*bucketRoom : (i+1)*bucketRoom]
	}
}

func (r *radix) push(key int64, u int32) {
	i := bits.Len64(uint64(key ^ r.last))
	r.b[i] = append(r.b[i], item{key, u})
}

// pop removes an item of least key; ok is false when r is empty.
func (r *radix) pop() (it item, ok bool) {
	if len(r.b[0]) == 0 {
		i := 1
		for i < len(r.b) && len(r.b[i]) == 0 {
			i++
		}
		if i == len(r.b) {
			return item{}, false
		}
		least := r.b[i][0].key
		for _, it := range r.b[i][1:] {
			least = min(least, it.key)
		}
		r.last = least
		for _, it := range r.b[i] {
			j := bits.Len64(uint64(it.key ^ least))
			r.b[j] = append(r.b[j], it)
		}
		r.b[i] = r.b[i][:0]
	}
	last := len(r.b[0]) - 1
	it = r.b[0][last]
	r.b[0] = r.b[0][:last]
	return it, true
}

// reset empties r for the next search.
func (r *radix) reset() {
	r.last = 0
	for i := range r.b {
		r.b[i] = r.b[i][:0]
	}
}

// poller polls ctx for a row pass, once before it and once at the first
// row of every block of pollRows, and never again after a poll has seen
// it done: the polls a pass makes are one per block, whatever the width
// it runs at.
type poller struct {
	ctx  context.Context
	mu   sync.Mutex
	err  error
	dead atomic.Bool
}

// stopped reports whether row i is to be skipped: ctx is done.
func (p *poller) stopped(i int) bool {
	if i%pollRows == 0 {
		return p.poll()
	}
	return p.dead.Load()
}

// poll polls ctx unless a poll has seen it done, and reports whether one
// has.
func (p *poller) poll() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		if p.err = p.ctx.Err(); p.err != nil {
			p.dead.Store(true)
		}
	}
	return p.err != nil
}
