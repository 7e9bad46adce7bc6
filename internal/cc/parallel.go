package cc

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/congestedclique/ccsp/internal/pool"
)

// ctxStep is the cancellation check the collective bodies make between
// their stages, at every shard count: a fired context.Context aborts a
// large collective between row passes instead of only at the next barrier
// (execute's check). It returns nil while the context is live.
func (e *engine) ctxStep() error {
	if e.ctx.Err() != nil {
		return canceled(e.ctx)
	}
	return nil
}

// autoParMinN is the clique size below which a default (Workers=0) run
// uses one shard: collective bodies on tiny cliques are too small to
// amortize the fan-out cost of a row pass. An explicit Workers>1 always
// shards, whatever the size.
const autoParMinN = 64

// spans splits [0, n) into k balanced contiguous ranges: the first n%k
// spans have ceil(n/k) elements, the rest floor(n/k). Both directions
// (bounds and of) are pure arithmetic, so shard assignment is
// deterministic for a given (n, k).
type spans struct{ n, k int }

func makeSpans(n, k int) spans {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return spans{n: n, k: k}
}

func (s spans) bounds(i int) (lo, hi int) {
	q, r := s.n/s.k, s.n%s.k
	if i < r {
		lo = i * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (i-r)*q
	return lo, lo + q
}

func (s spans) of(x int) int {
	q, r := s.n/s.k, s.n%s.k
	if x < r*(q+1) {
		return x / (q + 1)
	}
	return r + (x-r*(q+1))/q
}

// forShards runs fn(shard, lo, hi) for every shard of sp, one row of a
// pool.RunEach pass each, and waits for completion. Shards own disjoint
// index ranges, so fn may write to per-index state without
// synchronization; the pass may run them at any width up to e.workers.
func (e *engine) forShards(sp spans, fn func(shard, lo, hi int)) {
	pool.RunEach(sp.k, e.workers, func() func(int) {
		return func(i int) {
			lo, hi := sp.bounds(i)
			fn(i, lo, hi)
		}
	})
}

// pktRef locates one packet of the batch, by sender and submission index,
// together with its destination.
type pktRef struct{ dst, src, idx int32 }

// scatter builds the per-destination inboxes for a sync or route collective
// with a two-stage shuffle, one row pass a stage:
//
//   - stage 1 partitions senders into contiguous ID ranges; each shard
//     validates its senders' packets while counting them per destination
//     shard, then fills one exactly sized bucket of pktRefs per
//     destination shard, preserving sender order (and submission order
//     within one sender);
//   - stage 2 partitions destinations; each shard sizes its inboxes from
//     the buckets addressed to it, then fills them with the referenced
//     messages, stamped with their sender, walking sender shards in
//     ascending order so inboxes come out sorted by Src.
//
// The work per packet is the same whatever the shard count, and every
// byte of the result is independent of it; only the wall-clock changes.
func (e *engine) scatter(kind reqKind) (inbox [][]Msg, maxSend int, msgs int64, err error) {
	n := e.n
	sp := makeSpans(n, e.workers)
	k := sp.k
	dupCheck := kind == reqSync
	buckets := make([][][]pktRef, k)
	errs := make([]error, k)
	counts := make([]int64, k)
	sendMax := make([]int, k)
	e.forShards(sp, func(s, lo, hi int) {
		var seen []int32 // last sender stamped per destination (dup detection)
		if dupCheck {
			seen = make([]int32, n)
			for i := range seen {
				seen[i] = -1
			}
		}
		size := make([]int, k)
		for v := lo; v < hi; v++ {
			r := e.batch[v]
			if r == nil {
				continue
			}
			sendMax[s] = max(sendMax[s], len(r.packets))
			for _, p := range r.packets {
				if p.Dst < 0 || int(p.Dst) >= n {
					verb := "routed"
					if dupCheck {
						verb = "sent"
					}
					errs[s] = fmt.Errorf("cc: node %d %s to invalid destination %d", v, verb, p.Dst)
					return
				}
				if dupCheck {
					if seen[p.Dst] == int32(v) {
						errs[s] = fmt.Errorf("cc: node %d sent two messages to node %d in one round (link capacity is one message per round)", v, p.Dst)
						return
					}
					seen[p.Dst] = int32(v)
				}
				size[sp.of(int(p.Dst))]++
			}
			counts[s] += int64(len(r.packets))
		}
		bk := make([][]pktRef, k)
		for d, c := range size {
			if c > 0 {
				bk[d] = make([]pktRef, 0, c)
			}
		}
		for v := lo; v < hi; v++ {
			r := e.batch[v]
			if r == nil {
				continue
			}
			for i, p := range r.packets {
				d := sp.of(int(p.Dst))
				bk[d] = append(bk[d], pktRef{dst: p.Dst, src: int32(v), idx: int32(i)})
			}
		}
		buckets[s] = bk
	})
	// Report the error of the lowest sender shard: shards scan senders in
	// ascending ID order, so this is the first violation in sender order.
	for _, shardErr := range errs {
		if shardErr != nil {
			return nil, 0, 0, shardErr
		}
	}
	if err := e.ctxStep(); err != nil {
		return nil, 0, 0, err
	}
	inbox = make([][]Msg, n)
	e.forShards(sp, func(d, lo, hi int) {
		cnt := make([]int, hi-lo)
		for s := 0; s < k; s++ {
			for _, p := range buckets[s][d] {
				cnt[int(p.dst)-lo]++
			}
		}
		for j, c := range cnt {
			if c > 0 {
				inbox[lo+j] = make([]Msg, 0, c)
			}
		}
		for s := 0; s < k; s++ {
			for _, p := range buckets[s][d] {
				m := e.batch[p.src].packets[p.idx].M
				m.Src = p.src
				inbox[p.dst] = append(inbox[p.dst], m)
			}
		}
	})
	for s := 0; s < k; s++ {
		msgs += counts[s]
		maxSend = max(maxSend, sendMax[s])
	}
	return inbox, maxSend, msgs, nil
}

// execSync performs one synchronous round: each node sends at most one
// message per destination. Inboxes are sorted by sender.
func (e *engine) execSync() error {
	inbox, _, msgs, err := e.scatter(reqSync)
	if err != nil {
		return err
	}
	e.stats.SimRounds++
	e.stats.Messages += msgs
	e.respond(func(v int) response { return response{msgs: inbox[v]} })
	return nil
}

// execRoute implements the semantics of Lenzen's routing scheme [43]: an
// arbitrary message set is delivered, and the run is charged
// ceil(maxSend/n) + ceil(maxRecv/n) rounds, which is O(1) when every node
// sends and receives at most n messages - exactly the guarantee of [43] that
// the paper uses as a black-box primitive (§1.5).
func (e *engine) execRoute() error {
	inbox, maxSend, msgs, err := e.scatter(reqRoute)
	if err != nil {
		return err
	}
	maxRecv := 0
	for _, in := range inbox {
		maxRecv = max(maxRecv, len(in))
	}
	if msgs > 0 {
		e.stats.Charged["route"] += ceilDiv(maxSend, e.n) + ceilDiv(maxRecv, e.n)
		e.stats.Messages += msgs
	}
	e.respond(func(v int) response { return response{msgs: inbox[v]} })
	return nil
}

// bcastChunkMinN is the clique size below which the broadcast gather runs
// on one shard: copying one word per node is so cheap that a row pass's
// fan-out costs more than it saves.
const bcastChunkMinN = 4096

// execBcast performs one broadcast round: each node announces one word to
// everyone. The gather is sharded across a row pass for cliques large enough
// to amortize the fan-out. The result slice (indexed by sender) is shared
// read-only by all nodes, which keeps the simulation at O(n) memory for an
// O(n^2)-message round; node programs must not mutate it.
func (e *engine) execBcast() error {
	workers := e.workers
	if e.n < bcastChunkMinN {
		workers = 1
	}
	vals := make([]int64, e.n)
	e.forShards(makeSpans(e.n, workers), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			if r := e.batch[v]; r != nil {
				vals[v] = r.bval
			}
		}
	})
	e.stats.SimRounds++
	e.stats.Messages += int64(e.n) * int64(e.n-1)
	e.respond(func(int) response { return response{vals: vals} })
	return nil
}

// sortItem is one record of a global sort: its key, and its sender and
// index in the sender's submission, which also locate its payload.
type sortItem struct {
	key      int64
	src, idx int32
}

// itemCmp is the global sort order: (key, sender, submission index). It is
// a strict total order because (sender, index) pairs are unique.
func itemCmp(a, b sortItem) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.idx, b.idx)
}

// execSort implements the semantics of Lenzen's sorting scheme [43]: the
// union of all submitted records is sorted globally by (Key, sender,
// submission index) and node i receives the i-th batch of the global order.
// The charge is 3 rounds per ceil(maxInput/n) "load unit", constant when
// every node submits at most n records, per [43].
//
// Each sender shard collects its senders' records into one run and sorts
// it under itemCmp; mergeRunTree merges the shard runs, and the output
// batches are materialized sharded by destination. itemCmp is a strict
// total order, so the result does not depend on the shard count.
func (e *engine) execSort() error {
	n := e.n
	sp := makeSpans(n, e.workers)
	runs := make([][]sortItem, sp.k)
	maxInShard := make([]int, sp.k)
	e.forShards(sp, func(s, lo, hi int) {
		size := 0
		for v := lo; v < hi; v++ {
			if r := e.batch[v]; r != nil {
				size += len(r.recs)
				maxInShard[s] = max(maxInShard[s], len(r.recs))
			}
		}
		run := make([]sortItem, 0, size)
		for v := lo; v < hi; v++ {
			r := e.batch[v]
			if r == nil {
				continue
			}
			for i, rec := range r.recs {
				run = append(run, sortItem{key: rec.Key, src: int32(v), idx: int32(i)})
			}
		}
		slices.SortFunc(run, itemCmp)
		runs[s] = run
	})
	total, maxIn := 0, 0
	for s, run := range runs {
		total += len(run)
		maxIn = max(maxIn, maxInShard[s])
	}
	if err := e.ctxStep(); err != nil {
		return err
	}
	all := e.mergeRunTree(runs)
	batchSize := ceilDiv(total, n)
	if total > 0 {
		e.stats.Charged["sort"] += 3 * ceilDiv(maxIn, n)
		e.stats.Messages += int64(total)
	}
	outs := make([][]Rec, n)
	e.forShards(sp, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			bLo := min(v*batchSize, total)
			bHi := min(bLo+batchSize, total)
			out := make([]Rec, bHi-bLo)
			for i, it := range all[bLo:bHi] {
				m := e.batch[it.src].recs[it.idx].M
				m.Src = it.src
				out[i] = Rec{Key: it.key, M: m}
			}
			outs[v] = out
		}
	})
	e.respond(func(v int) response { return response{recs: outs[v], batchSize: batchSize, total: total} })
	return nil
}

// mergeRunTree merges pre-sorted runs into one globally sorted slice with a
// pairwise merge tree; the merges of one level are the rows of one row
// pass. The order is independent of the merge shape because itemCmp is a
// strict total order.
func (e *engine) mergeRunTree(runs [][]sortItem) []sortItem {
	cur := make([][]sortItem, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			cur = append(cur, r)
		}
	}
	if len(cur) == 0 {
		return nil
	}
	for len(cur) > 1 {
		pairs := len(cur) / 2
		next := make([][]sortItem, (len(cur)+1)/2)
		if len(cur)%2 == 1 {
			next[pairs] = cur[len(cur)-1]
		}
		pool.RunEach(pairs, e.workers, func() func(int) {
			return func(i int) { next[i] = mergeRuns(cur[2*i], cur[2*i+1]) }
		})
		cur = next
	}
	return cur[0]
}

func mergeRuns(a, b []sortItem) []sortItem {
	out := make([]sortItem, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if itemCmp(a[0], b[0]) < 0 {
			out = append(out, a[0])
			a = a[1:]
		} else {
			out = append(out, b[0])
			b = b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}
