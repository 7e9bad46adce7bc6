package disttools

import (
	"context"
	"fmt"
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
// arcs of the weight matrix, ranked under the running pass's semiring,
// the answer slabs under their headers (KNearestAll's and KNearestLent's
// rows, KNearestRouted's routed ones) and one searcher per pass worker. A
// released one waits in nearests, as a released (S, d, k)-detection state
// waits in kdetects, and the next search of the same n takes it over.
type nearest struct {
	n      int
	off    []int32 // row y's arcs are arcs[off[y]:off[y+1]]
	arcs   []arc
	sr     semiring.AugMinPlus // the running pass's semiring, which unranks its keys,
	k      int                 // and its k
	out    *matrix.Mat[semiring.WH]
	slab   []matrix.Entry[semiring.WH] // row v's window is [v·k, v·k + k)
	routed *matrix.Mat[semiring.WHF]
	rslab  []matrix.Entry[semiring.WHF] // routed row v's window, as slab's

	mu    sync.Mutex
	ws    []*searcher
	taken int // searchers handed out in the running pass

	cert certPass // the running CertifiedPlane pass
}

// searcher is one pass worker's scratch: a key per node, at rest
// unreached, a first hop per node once a pass has tracked them, the heap,
// the nodes it reached and the nodes it settled, in order.
type searcher struct {
	key  []int64
	fh   []int32
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

var nearests sync.Pool // of *nearest

// takeNearest returns a released nearest of n nodes, or a new one, for
// searches whose keys are ranks under sr. A key is the sum of its path's
// entries' ranks and unranks to the path's (W, H) while the hop count
// stays below the rank's multiplier MaxH + 2; a search keeps paths of
// fewer than n hops, so it refuses an sr whose MaxH is below n - 2 (a
// graph's AugSemiring has MaxH = n + 1).
func takeNearest(sr semiring.AugMinPlus, n int) (*nearest, error) {
	if int64(n) > sr.MaxH+2 {
		return nil, fmt.Errorf("disttools: ranks of %d-node paths need MaxH >= %d, have %d", n, n-2, sr.MaxH)
	}
	if nb, _ := nearests.Get().(*nearest); nb != nil && nb.n == n {
		return nb, nil
	}
	return &nearest{n: n, off: make([]int32, n+1)}, nil
}

// release gives nb back for a later search to take over. Every row nb
// handed out is dead from then on, and so is nb.
func (nb *nearest) release() { nearests.Put(nb) }

// worker hands the calling pass goroutine a searcher of its own.
func (nb *nearest) worker() *searcher {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	if nb.taken == len(nb.ws) {
		s := &searcher{key: make([]int64, nb.n), mark: make([]uint64, (nb.n+63)/64)}
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
func (nb *nearest) knearest(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], k, workers int) (*matrix.Mat[semiring.WH], error) {
	if nb.out == nil {
		nb.out = matrix.New[semiring.WH](nb.n)
	}
	if cap(nb.slab) < nb.n*k {
		nb.slab = make([]matrix.Entry[semiring.WH], nb.n*k)
	}
	if err := nb.pass(ctx, sr, w, k, workers, false, nb); err != nil {
		return nil, err
	}
	return nb.out, nil
}

// rowSink takes each row's kept nodes off a pass: got in the order
// search returns them, with the searcher whose keys they are; got and the
// keys are the searcher's until keep returns. An interface, not a func,
// so that knearest's sink, nb itself, costs a query no allocation.
type rowSink interface {
	keep(s *searcher, v int, got []int32)
}

// keepFunc is a func as a rowSink.
type keepFunc func(s *searcher, v int, got []int32)

func (f keepFunc) keep(s *searcher, v int, got []int32) { f(s, v, got) }

// keep is knearest's row sink: row v's kept nodes as entries, (W, H)
// decoded from the key, in column order, in the row's window of nb's
// slab.
func (nb *nearest) keep(s *searcher, v int, got []int32) {
	row := window(s, got, nb.slab, v, nb.k)
	for i, u := range got {
		row[i] = matrix.Entry[semiring.WH]{Col: u, Val: nb.sr.Unrank(s.key[u])}
	}
	nb.out.Rows[v] = row
}

// window puts the kept nodes in column order and returns row v's window
// of slab, one entry a kept node, for a sink to fill; nil, the all-zero
// row, for none.
func window[F any](s *searcher, got []int32, slab []matrix.Entry[F], v, k int) matrix.Row[F] {
	if len(got) == 0 {
		return nil
	}
	s.order(got)
	return slab[v*k:][:len(got):len(got)]
}

// routedRows is KNearestRouted's row sink: row v's kept nodes as routed
// entries, (W, H) decoded from the key and the first hop beside it, in
// column order, in the row's window of nb's routed slab.
type routedRows struct{ nb *nearest }

func (r routedRows) keep(s *searcher, v int, got []int32) {
	nb := r.nb
	row := window(s, got, nb.rslab, v, nb.k)
	for i, u := range got {
		wh := nb.sr.Unrank(s.key[u])
		row[i] = matrix.Entry[semiring.WHF]{Col: u, Val: semiring.WHF{W: wh.W, H: wh.H, FH: s.fh[u]}}
	}
	nb.routed.Rows[v] = row
}

// pass runs one search per row of w on a row pass and hands each row's
// kept nodes to sink; with hops set its searches track first hops.
func (nb *nearest) pass(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], k, workers int, hops bool, sink rowSink) error {
	n := nb.n
	poll := poller{ctx: ctx}
	if poll.poll() {
		return poll.err
	}
	nb.fill(sr, w)
	nb.k = k
	nb.taken = 0
	pool.RunRows(n, workers, func() func(int) {
		s := nb.worker()
		if hops && s.fh == nil {
			s.fh = make([]int32, n)
		}
		return func(v int) {
			if poll.stopped(v) {
				return
			}
			sink.keep(s, v, s.search(nb, v, k, hops))
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

// fill lays w out as nb's arcs, ranked under sr, which becomes the
// semiring nb's keys unrank under: row y's entries, in order.
func (nb *nearest) fill(sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH]) {
	nb.sr = sr
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

// firstHop is the first hop of a path that leaves v by its weight
// matrix's entry at column u: u itself, and -1 for v's own (0, 0) entry,
// which leaves v by no edge (§3.1, recovering paths). It is the witness
// RoutedRow gives an entry and the one KNearestRouted's searches seed.
func firstHop(u int32, v int) int32 {
	if int(u) == v {
		return -1
	}
	return u
}

// RoutedRow is row v of a weight matrix lifted into the routed semiring,
// each entry's witness its first hop (firstHop): a row of the routed
// weight matrix that the collective KNearest runs over to answer what
// KNearestRouted does. A nil row stays nil.
func RoutedRow(row matrix.Row[semiring.WH], v int) matrix.Row[semiring.WHF] {
	if row == nil {
		return nil
	}
	out := make(matrix.Row[semiring.WHF], len(row))
	for i, e := range row {
		out[i] = matrix.Entry[semiring.WHF]{Col: e.Col, Val: semiring.WHF{W: e.Val.W, H: e.Val.H, FH: firstHop(e.Col, v)}}
	}
	return out
}

// search returns the nodes of row v of Filter_k(D_∞) in the order it
// settled them, so their keys - s.key, until reset - never decrease; the
// ones tied with the k-th key come last, in column order, when they did
// not all fit. It is seeded with row v's own arcs - a nil row, a node
// outside the §6.3 subgraph G', settles nothing - and settles nodes in
// key order, keys being ranks: the rank of a path is the sum of its
// entries' ranks, exactly, while hop sums stay below MaxH. Every node
// tied with the k-th key is settled too, all of them reached from lower
// keys already, and the lowest columns among them are kept (Lemma 15's
// rule). With hops set the search tracks each node's first hop, in s.fh,
// as the routed semiring would over the entries lifted by RoutedRow
// (RoutedMinPlus.Mul and Add): a seed's is firstHop's; an improved node
// takes the first hop of the node it was reached from, and a tied one
// keeps the least of the two. The k-th node and the ones after it relax
// nothing: an off-diagonal entry has H >= 1, so what they reach ranks
// past the k-th key.
func (s *searcher) search(nb *nearest, v, k int, hops bool) []int32 {
	for _, a := range nb.arcs[nb.off[v]:nb.off[v+1]] {
		u := a.col
		s.key[u] = a.rank
		if hops {
			s.fh[u] = firstHop(u, v)
		}
		s.seen = append(s.seen, u)
		s.heap.push(a.rank, u)
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
		ky := it.key
		var fy int32
		if hops {
			fy = s.fh[y]
		}
		as := nb.arcs[nb.off[y]:nb.off[y+1]]
		s.relaxed += int64(len(as))
		for _, a := range as {
			c, u := ky+a.rank, a.col
			switch cu := s.key[u]; {
			case c < cu:
				if cu == unreached {
					s.seen = append(s.seen, u)
				}
				s.key[u] = c
				s.heap.push(c, u)
				if hops {
					s.fh[u] = fy
				}
			case c == cu && hops:
				s.fh[u] = min(s.fh[u], fy)
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
func (s *searcher) reset() {
	for _, u := range s.seen {
		s.key[u] = unreached
	}
	s.heap.reset()
	s.seen, s.got = s.seen[:0], s.got[:0]
}

// order puts the kept nodes in column order, in place: through the bitmap
// while its span holds at most one word per kept node, sorted past that.
// At that bound the bitmap costs about what a sort does for 8 nodes and a
// quarter of it for 321; past it a sort of 8 nodes already wins
// (DESIGN.md §13, exit 5).
func (s *searcher) order(got []int32) {
	lo, hi := got[0], got[0]
	for _, u := range got {
		lo, hi = min(lo, u), max(hi, u)
	}
	if words := int(hi>>6 - lo>>6 + 1); words > len(got) {
		slices.Sort(got)
		return
	}
	for _, u := range got {
		s.mark[u>>6] |= 1 << (u & 63)
	}
	j := 0
	for i := lo >> 6; i <= hi>>6; i++ {
		for m := s.mark[i]; m != 0; m &= m - 1 {
			got[j] = i<<6 | int32(bits.TrailingZeros64(m))
			j++
		}
		s.mark[i] = 0
	}
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
