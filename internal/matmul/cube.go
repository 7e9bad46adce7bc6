package matmul

import (
	"sort"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// triple is a matrix entry in transit: absolute (row, col) coordinates plus
// a semiring value.
type triple[E any] struct {
	row, col int32
	val      E
}

// cubeState is the globally known outcome of the cube partitioning of
// Lemma 9 at one node, together with the node's redistributed input data
// (column ID of S, row ID of T). Every node derives the identical partition
// from broadcast information, as in the paper.
type cubeState[E any] struct {
	nd   *cc.Node
	sr   semiring.Semiring[E]
	n    int
	par  Params
	nsub int // number of subcubes = A*B*C <= n

	rhoS, rhoT, rhoHat int

	// sAssign[u] = i: row u of S belongs to C^S_i (Lemma 5 partition by
	// S-row weights, b groups).
	sAssign []int32
	// tAssign[u] = j: column u of T belongs to C^T_j (a groups).
	tAssign []int32
	// cb[i*A+j] holds the c+1 half-open boundaries of the consecutive
	// middle-dimension partition C^ij_k (Lemma 7).
	cb [][]int32

	// scol is column nd.ID of S: triples (u, nd.ID) sorted by row.
	scol []matrix.Entry[E]
	// trow is row nd.ID of T.
	trow matrix.Row[E]
}

// subcubeID encodes (i, j, k) with i in [0,B), j in [0,A), k in [0,C).
func (cs *cubeState[E]) subcubeID(i, j, k int) int {
	return (i*cs.par.A+j)*cs.par.C + k
}

func (cs *cubeState[E]) decode(sid int) (i, j, k int) {
	k = sid % cs.par.C
	ij := sid / cs.par.C
	return ij / cs.par.A, ij % cs.par.A, k
}

// findPart returns k such that w lies in C^ij_k.
func (cs *cubeState[E]) findPart(i, j, w int) int {
	starts := cs.cb[i*cs.par.A+j]
	lo, hi := 0, len(starts)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if int(starts[mid]) <= w {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// newCube runs the cube-partitioning phase (Lemma 9) as a collective:
// it redistributes the inputs (transposing S so node w holds column w),
// computes the balanced partitions C^S, C^T from broadcast weights, and the
// doubly-balanced consecutive partitions C^ij via per-group counts, making
// the full partition globally known. rhoHat is the assumed output density.
func newCube[E any](nd *cc.Node, sr semiring.Semiring[E], srow, trow matrix.Row[E], rhoHat int) *cubeState[E] {
	n := nd.N
	cs := &cubeState[E]{nd: nd, sr: sr, n: n, trow: trow}

	// Row weights of S are broadcast (Lemma 9 step (1)).
	rowWS64 := nd.BroadcastVal(int64(len(srow)))
	rowWS := append([]int64(nil), rowWS64...)

	// Column counts of T: one message per entry to the column owner (at
	// most one per link), then broadcast the totals.
	out := make([]cc.Packet, 0, len(trow))
	for _, e := range trow {
		out = append(out, cc.Packet{Dst: e.Col, M: cc.Msg{}})
	}
	colCnt := int64(len(nd.Sync(out)))
	colWT64 := nd.BroadcastVal(colCnt)
	colWT := append([]int64(nil), colWT64...)

	// Transpose S: entry (v, u) travels to node u; inboxes arrive sorted
	// by sender = row index.
	out = out[:0]
	for _, e := range srow {
		c, d := sr.Enc(e.Val)
		out = append(out, cc.Packet{Dst: e.Col, M: cc.Msg{A: c, B: d}})
	}
	for _, m := range nd.Sync(out) {
		cs.scol = append(cs.scol, matrix.Entry[E]{Col: m.Src, Val: sr.Dec(m.A, m.B)})
	}

	var nnzS, nnzT int64
	for v := 0; v < n; v++ {
		nnzS += rowWS[v]
		nnzT += colWT[v]
	}
	cs.rhoS = densityOf(nnzS, n)
	cs.rhoT = densityOf(nnzT, n)
	cs.rhoHat = rhoHat
	cs.par = ChooseParams(n, cs.rhoS, cs.rhoT, rhoHat)
	cs.nsub = cs.par.A * cs.par.B * cs.par.C

	cs.sAssign = PartitionBalanced(rowWS, cs.par.B)
	cs.tAssign = PartitionBalanced(colWT, cs.par.A)

	// Per-pair counts: node v sends (nz(S[C^S_i, v]), nz(T[v, C^T_j])) to
	// every node (i, j, k) (Lemma 9 proof, step (2)); each node sends at
	// most n messages and receives n.
	cntS := make([]int64, cs.par.B)
	for _, e := range cs.scol {
		cntS[cs.sAssign[e.Col]]++ // e.Col is the row index of S here
	}
	cntT := make([]int64, cs.par.A)
	for _, e := range cs.trow {
		cntT[cs.tAssign[e.Col]]++
	}
	pkts := make([]cc.Packet, 0, cs.nsub)
	for sid := 0; sid < cs.nsub; sid++ {
		i, j, _ := cs.decode(sid)
		pkts = append(pkts, cc.Packet{Dst: int32(sid), M: cc.Msg{A: cntS[i], B: cntT[j]}})
	}
	in := nd.Route(pkts)

	// Nodes (i, j, *) compute the Lemma 7 partition of the middle
	// dimension for their pair and announce their own part's boundary.
	var packed int64
	if nd.ID < cs.nsub {
		wS := make([]int64, n)
		wT := make([]int64, n)
		for _, m := range in {
			wS[m.Src] = m.A
			wT[m.Src] = m.B
		}
		_, _, k := cs.decode(nd.ID)
		starts := PartitionConsecutive2(wS, wT, cs.par.C)
		packed = int64(starts[k])<<32 | int64(starts[k+1])
	}
	bounds := nd.BroadcastVal(packed)

	cs.cb = make([][]int32, cs.par.B*cs.par.A)
	for ij := range cs.cb {
		starts := make([]int32, cs.par.C+1)
		for k := 0; k < cs.par.C; k++ {
			p := bounds[ij*cs.par.C+k]
			starts[k] = int32(p >> 32)
		}
		starts[cs.par.C] = int32(n)
		cs.cb[ij] = starts
	}
	return cs
}

func densityOf(nnz int64, n int) int {
	rho := int((nnz + int64(n) - 1) / int64(n))
	if rho < 1 {
		rho = 1
	}
	return rho
}

// Message kinds used by the delivery phase.
const (
	kindS uint8 = iota + 1
	kindT
)

// deliver implements Lemma 11: given an assignment sigma (node -> subcube
// ID, or -1), it delivers to each node v the submatrices S[C^S_i, C^ij_k]
// and T[C^ij_k, C^T_j] of its assigned subcube sigma(v) = (i,j,k). The
// balancing of Lemma 10 (global sort by duplication weight + round-robin
// deal) keeps every node's send load at O(W/n + n) messages.
func (cs *cubeState[E]) deliver(sigma []int32) (ssub, tsub []triple[E]) {
	nd := cs.nd
	// owners[sid] = nodes assigned to subcube sid, ascending.
	owners := make([][]int32, cs.nsub)
	for v, sid := range sigma {
		if sid >= 0 {
			owners[sid] = append(owners[sid], int32(v))
		}
	}

	// Collect this node's held entries with duplication weights.
	// S entries: held column-wise, (row u, col me); duplicated to owners
	// of (sAssign[u], j, findPart(.,j,me)) for every j.
	// T entries: held row-wise, (row me, col u); duplicated to owners of
	// (i, tAssign[u], findPart(i,.,me)) for every i.
	recs := make([]cc.Rec, 0, len(cs.scol)+len(cs.trow))
	me := nd.ID
	for _, e := range cs.scol {
		u := int(e.Col) // row index of S
		i := int(cs.sAssign[u])
		dup := 0
		for j := 0; j < cs.par.A; j++ {
			dup += len(owners[cs.subcubeID(i, j, cs.findPart(i, j, me))])
		}
		c, d := cs.sr.Enc(e.Val)
		recs = append(recs, cc.Rec{Key: -int64(dup), M: cc.Msg{Kind: kindS, A: int64(u), B: int64(me), C: c, D: d}})
	}
	for _, e := range cs.trow {
		u := int(e.Col)
		j := int(cs.tAssign[u])
		dup := 0
		for i := 0; i < cs.par.B; i++ {
			dup += len(owners[cs.subcubeID(i, j, cs.findPart(i, j, me))])
		}
		c, d := cs.sr.Enc(e.Val)
		recs = append(recs, cc.Rec{Key: -int64(dup), M: cc.Msg{Kind: kindT, A: int64(me), B: int64(u), C: c, D: d}})
	}

	// Lemma 10 balancing: global sort by weight (descending via negated
	// key), then deal item of global rank r to node r mod n.
	res := nd.Sort(recs)
	deal := make([]cc.Packet, 0, len(res.Recs))
	for i, r := range res.Recs {
		deal = append(deal, cc.Packet{Dst: int32(res.Rank(i) % cs.n), M: r.M})
	}
	balanced := nd.Route(deal)

	// Duplication send: each balanced holder forwards its entries to all
	// subcube owners that need them.
	var dups []cc.Packet
	for _, m := range balanced {
		switch m.Kind {
		case kindS:
			u, w := int(m.A), int(m.B)
			i := int(cs.sAssign[u])
			for j := 0; j < cs.par.A; j++ {
				sid := cs.subcubeID(i, j, cs.findPart(i, j, w))
				for _, x := range owners[sid] {
					dups = append(dups, cc.Packet{Dst: x, M: m})
				}
			}
		case kindT:
			w, u := int(m.A), int(m.B)
			j := int(cs.tAssign[u])
			for i := 0; i < cs.par.B; i++ {
				sid := cs.subcubeID(i, j, cs.findPart(i, j, w))
				for _, x := range owners[sid] {
					dups = append(dups, cc.Packet{Dst: x, M: m})
				}
			}
		}
	}
	for _, m := range nd.Route(dups) {
		t := triple[E]{row: int32(m.A), col: int32(m.B), val: cs.sr.Dec(m.C, m.D)}
		if m.Kind == kindS {
			ssub = append(ssub, t)
		} else {
			tsub = append(tsub, t)
		}
	}
	return ssub, tsub
}

// identity is step (2)'s assignment σ₁: node v computes subcube v, and the
// nodes beyond the a·b·c subcubes idle.
func (cs *cubeState[E]) identity() []int32 {
	sigma1 := make([]int32, cs.n)
	for v := range sigma1 {
		sigma1[v] = -1
		if v < cs.nsub {
			sigma1[v] = int32(v)
		}
	}
	return sigma1
}

// compute delivers the subcubes sigma assigns (Lemma 11) and returns the
// product of the one assigned to this node, nil if sigma assigns it none.
func (cs *cubeState[E]) compute(sigma []int32) []triple[E] {
	ssub, tsub := cs.deliver(sigma)
	return localProduct(cs.sr, ssub, tsub)
}

// localProduct computes the subtask product of the delivered submatrices
// sequentially at one node, returning non-zero entries sorted by (row, col).
func localProduct[E any](sr semiring.Semiring[E], ssub, tsub []triple[E]) []triple[E] {
	if len(ssub) == 0 || len(tsub) == 0 {
		return nil
	}
	tByRow := make(map[int32][]triple[E])
	for _, t := range tsub {
		tByRow[t.row] = append(tByRow[t.row], t)
	}
	acc := make(map[int64]E)
	for _, s := range ssub {
		trow, ok := tByRow[s.col]
		if !ok {
			continue
		}
		for _, t := range trow {
			key := int64(s.row)<<32 | int64(uint32(t.col))
			prod := sr.Mul(s.val, t.val)
			if prev, ok := acc[key]; ok {
				acc[key] = sr.Add(prev, prod)
			} else {
				acc[key] = prod
			}
		}
	}
	out := make([]triple[E], 0, len(acc))
	for key, v := range acc {
		if sr.IsZero(v) {
			continue
		}
		out = append(out, triple[E]{row: int32(key >> 32), col: int32(uint32(key)), val: v})
	}
	sortTriples(out)
	return out
}

// sortTriples orders entries deterministically by (row, col).
func sortTriples[E any](ts []triple[E]) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].row != ts[j].row {
			return ts[i].row < ts[j].row
		}
		return ts[i].col < ts[j].col
	})
}
