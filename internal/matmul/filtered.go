package matmul

import (
	"math/bits"
	"sort"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Message kinds of the filtered-multiplication protocol (Lemma 15).
const (
	kindCntInit uint8 = iota + 8
	kindQuery
	kindReply
	kindCutoff
)

// cutoff is the per-row filtering threshold computed by Lemma 15: keep
// entry (val, col) iff Rank(val) < rank, or Rank(val) == rank and
// col <= colCut. This realizes the paper's ρ-th smallest element of the set
// {(P_k[ℓ,i], i)} under the order (value, column).
type cutoff struct {
	rank   int64
	colCut int32
}

func (c cutoff) keeps(rank int64, col int32) bool {
	return rank < c.rank || (rank == c.rank && col <= c.colCut)
}

// MultiplyFiltered computes one row of the ρ-filtered product of S·T over
// an ordered semiring (Theorem 14): each output row holds the ρ smallest
// entries of the true product row. Unlike Multiply, no knowledge of the
// output density is needed - the output is sparsified on the fly via the
// distributed binary searches of Lemma 15 and the balancing of Lemma 16.
func MultiplyFiltered[E any](nd *cc.Node, sr semiring.Ordered[E], srow, trow matrix.Row[E], rho int) matrix.Row[E] {
	if rho < 1 {
		rho = 1
	}
	if rho > nd.N {
		rho = nd.N
	}
	cs := newCube(nd, sr, srow, trow, rho)

	// Step (2): node v computes subtask v, which is the (i,j) block of the
	// layer matrix P_k for (i,j,k) = decode(v).
	sigma1 := cs.identity()
	pmine := cs.compute(sigma1)

	// Step (3), Lemma 15: per-row distributed binary searches within the
	// groups B_ik determine the cutoff values.
	fs := newFilterState(cs, sr, pmine)
	fs.runSearches(rho)

	kept := fs.filter(pmine)

	// Step (4), Lemma 16: balance the filtered entries by duplicating
	// overloaded subtasks within their B_ik group.
	wkept := nd.BroadcastVal(int64(len(kept)))
	sigma2, capPer := buildSigma2InGroups(cs, wkept, rho)
	// Helpers recompute the product and filter with the cutoffs they
	// learned as members of the same group B_ik.
	kept2 := fs.filter(cs.compute(sigma2))
	mine := selectChunks(nd.ID, sigma1, sigma2, wkept, func(sid int) int64 { return capPer[sid] }, kept, kept2)

	// Step (5): balanced summation gives Q = Σ_k P̄_k; step (6): the final
	// local filter of the owned row gives the ρ-filtered product.
	qrow := cs.sumIntermediates(mine)
	return matrix.FilterRow(sr, qrow, rho)
}

// filterState holds one node's view of the Lemma 15 searches: its group
// B_ik, the rows of C^S_i, its per-row entries sorted by (rank, col), the
// rows it coordinates, and the resulting cutoffs.
type filterState[E any] struct {
	cs *cubeState[E]
	sr semiring.Ordered[E]

	i, k int // this node's group B_ik, if it has a subcube (ID < nsub)

	groupRows []int32 // C^S_i, ascending
	rowIdx    map[int32]int

	// rowEntries[ℓ] = my block entries of row ℓ as (rank, col), sorted.
	rowEntries map[int32][]rankCol

	// coordinated[t] for rows I coordinate: search state.
	searches map[int32]*searchState

	cutoffs map[int32]cutoff
}

type rankCol struct {
	rank int64
	col  int32
}

type searchState struct {
	total   int64
	lo, hi  int64
	cntLess int64 // count of rank < result, learned in the pre-col round
	colLo   int64
	colHi   int64
	done    bool
}

func newFilterState[E any](cs *cubeState[E], sr semiring.Ordered[E], pmine []triple[E]) *filterState[E] {
	fs := &filterState[E]{cs: cs, sr: sr, cutoffs: make(map[int32]cutoff)}
	if cs.nd.ID >= cs.nsub {
		return fs
	}
	fs.i, _, fs.k = cs.decode(cs.nd.ID)
	for u := 0; u < cs.n; u++ {
		if int(cs.sAssign[u]) == fs.i {
			fs.groupRows = append(fs.groupRows, int32(u))
		}
	}
	fs.rowIdx = make(map[int32]int, len(fs.groupRows))
	for t, u := range fs.groupRows {
		fs.rowIdx[u] = t
	}
	fs.rowEntries = make(map[int32][]rankCol)
	for _, t := range pmine {
		fs.rowEntries[t.row] = append(fs.rowEntries[t.row], rankCol{rank: sr.Rank(t.val), col: t.col})
	}
	for _, es := range fs.rowEntries {
		sort.Slice(es, func(a, b int) bool {
			if es[a].rank != es[b].rank {
				return es[a].rank < es[b].rank
			}
			return es[a].col < es[b].col
		})
	}
	fs.searches = make(map[int32]*searchState)
	return fs
}

// coordinator returns the node coordinating the search for group row index
// t: the t-mod-a member of B_ik (each coordinator leads O(n/ab) searches,
// as in the proof of Lemma 15).
func (fs *filterState[E]) coordinator(t int) int32 {
	return int32(fs.cs.subcubeID(fs.i, t%fs.cs.par.A, fs.k))
}

// countAtMost returns |{e in row: e.rank <= r}|.
func countAtMost(es []rankCol, r int64) int64 {
	return int64(sort.Search(len(es), func(x int) bool { return es[x].rank > r }))
}

// countEqColAtMost returns |{e in row: e.rank == r && e.col <= c}|.
func countEqColAtMost(es []rankCol, r int64, c int64) int64 {
	lo := sort.Search(len(es), func(x int) bool { return es[x].rank >= r })
	hi := sort.Search(len(es), func(x int) bool {
		return es[x].rank > r || (es[x].rank == r && int64(es[x].col) > c)
	})
	return int64(hi - lo)
}

// runSearches executes the batched distributed binary searches of Lemma 15
// in global lockstep: an initial count round, O(log W) value iterations,
// one pre-column round, O(log n) column iterations, and a cutoff
// dissemination round. All rows of all groups proceed in parallel;
// converged rows simply stop generating traffic.
func (fs *filterState[E]) runSearches(rho int) {
	nd := fs.cs.nd
	maxRank := fs.sr.MaxRank()

	// Initial counts: every participant reports its per-row entry counts
	// to the row's coordinator.
	var out []cc.Packet
	for row, es := range fs.rowEntries {
		out = append(out, cc.Packet{
			Dst: fs.coordinator(fs.rowIdx[row]),
			M:   cc.Msg{Kind: kindCntInit, A: int64(row), B: int64(len(es))},
		})
	}
	for _, m := range nd.Route(out) {
		row := int32(m.A)
		st := fs.searches[row]
		if st == nil {
			st = &searchState{hi: maxRank, colHi: int64(fs.cs.n - 1)}
			fs.searches[row] = st
		}
		st.total += m.B
	}
	for _, st := range fs.searches {
		if st.total <= int64(rho) {
			// Keep-all row: its cutoff is the top of both ranges.
			st.done = true
			st.lo, st.colLo = maxRank, int64(fs.cs.n-1)
		}
	}

	// Value phase: find the smallest rank r with count(<= r) >= rho.
	valIters := bits.Len64(uint64(maxRank)) + 1
	for it := 0; it < valIters; it++ {
		sums := fs.queryRound(func(st *searchState) (int64, int64, bool) {
			return st.lo + (st.hi-st.lo)/2, 0, st.lo < st.hi
		}, func(es []rankCol, r, _ int64) int64 { return countAtMost(es, r) })
		for row, st := range fs.searches {
			if st.lo >= st.hi {
				continue
			}
			mid := st.lo + (st.hi-st.lo)/2
			if sums[row] >= int64(rho) {
				st.hi = mid
			} else {
				st.lo = mid + 1
			}
		}
	}

	// Pre-column round: learn count(rank < r) for the converged rank.
	sums := fs.queryRound(func(st *searchState) (int64, int64, bool) {
		return st.lo, 0, true
	}, func(es []rankCol, r, _ int64) int64 { return countAtMost(es, r-1) })
	for row, st := range fs.searches {
		st.cntLess = sums[row]
	}

	// Column phase: smallest colCut with cntLess + count(==r, col<=cut) >= rho.
	colIters := bits.Len64(uint64(fs.cs.n)) + 1
	for it := 0; it < colIters; it++ {
		csums := fs.queryRound(func(st *searchState) (int64, int64, bool) {
			return st.lo, st.colLo + (st.colHi-st.colLo)/2, st.colLo < st.colHi
		}, countEqColAtMost)
		for row, st := range fs.searches {
			if st.colLo >= st.colHi {
				continue
			}
			mid := st.colLo + (st.colHi-st.colLo)/2
			if st.cntLess+csums[row] >= int64(rho) {
				st.colHi = mid
			} else {
				st.colLo = mid + 1
			}
		}
	}

	// Disseminate every row's cutoff, keep-all rows included, to the whole
	// group, so helpers know them.
	var cuts []cc.Packet
	for row, st := range fs.searches {
		for j := 0; j < fs.cs.par.A; j++ {
			cuts = append(cuts, cc.Packet{
				Dst: int32(fs.cs.subcubeID(fs.i, j, fs.k)),
				M:   cc.Msg{Kind: kindCutoff, A: int64(row), B: st.lo, C: st.colLo},
			})
		}
	}
	for _, m := range nd.Route(cuts) {
		fs.cutoffs[int32(m.A)] = cutoff{rank: m.B, colCut: int32(m.C)}
	}
}

// queryRound runs one query round of the Lemma 15 searches. The
// coordinator of each search that is not done and that ask reports live
// sends ask's (b, d) to every member of the group B_ik; each member
// replies with count(its entries of the row, b, d); and queryRound
// returns, at each coordinator, the replies summed per row.
func (fs *filterState[E]) queryRound(ask func(st *searchState) (b, d int64, live bool), count func(es []rankCol, b, d int64) int64) map[int32]int64 {
	var q []cc.Packet
	for row, st := range fs.searches {
		b, d, live := ask(st)
		if st.done || !live {
			continue
		}
		for j := 0; j < fs.cs.par.A; j++ {
			q = append(q, cc.Packet{
				Dst: int32(fs.cs.subcubeID(fs.i, j, fs.k)),
				M:   cc.Msg{Kind: kindQuery, A: int64(row), B: b, D: d},
			})
		}
	}
	var replies []cc.Packet
	for _, m := range fs.cs.nd.Route(q) {
		cnt := count(fs.rowEntries[int32(m.A)], m.B, m.D)
		replies = append(replies, cc.Packet{Dst: m.Src, M: cc.Msg{Kind: kindReply, A: m.A, B: cnt}})
	}
	sums := make(map[int32]int64)
	for _, m := range fs.cs.nd.Route(replies) {
		sums[int32(m.A)] += m.B
	}
	return sums
}

// filter keeps the entries passing their row's cutoff. Rows with no learned
// cutoff had no entries anywhere in the group and cannot occur here.
func (fs *filterState[E]) filter(product []triple[E]) []triple[E] {
	kept := make([]triple[E], 0, len(product))
	for _, t := range product {
		cut, ok := fs.cutoffs[t.row]
		if !ok {
			continue
		}
		if cut.keeps(fs.sr.Rank(t.val), t.col) {
			kept = append(kept, t)
		}
	}
	return kept
}

// buildSigma2InGroups constructs the Lemma 16 helper assignment: within
// each group B_ik, a member with w >= ρ·α_i·c kept entries gets
// floor(w/(ρ·α_i·c)) helpers drawn from the same group. It returns the
// assignment and the per-node chunk capacity (capPer[v] = ρ·α_i·c of v's
// group; 0 for idle nodes).
func buildSigma2InGroups[E any](cs *cubeState[E], wkept []int64, rho int) (sigma2 []int32, capPer []int64) {
	n := cs.n
	sigma2 = make([]int32, n)
	for v := range sigma2 {
		sigma2[v] = -1
	}
	capPer = make([]int64, n)

	groupSize := make([]int, cs.par.B) // |C^S_i|
	for u := 0; u < n; u++ {
		groupSize[cs.sAssign[u]]++
	}
	nOverB := n / cs.par.B
	if nOverB < 1 {
		nOverB = 1
	}
	for i := 0; i < cs.par.B; i++ {
		alpha := (groupSize[i] + nOverB - 1) / nOverB
		if alpha < 1 {
			alpha = 1
		}
		capacity := int64(rho) * int64(alpha) * int64(cs.par.C)
		for k := 0; k < cs.par.C; k++ {
			// Pool and targets are the members of B_ik in j-order.
			pool := 0
			for j := 0; j < cs.par.A; j++ {
				sid := cs.subcubeID(i, j, k)
				capPer[sid] = capacity
				helpers := int(wkept[sid] / capacity)
				for t := 0; t < helpers && pool < cs.par.A; t++ {
					helper := cs.subcubeID(i, pool, k)
					sigma2[helper] = int32(sid)
					pool++
				}
			}
		}
	}
	return sigma2, capPer
}
