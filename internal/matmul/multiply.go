package matmul

import (
	"errors"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// ErrDensityUnderestimated reports that the supplied output density ρ̂ was
// smaller than the true support density, so the balancing guarantee of
// Lemma 12 does not hold. MultiplyAuto retries with a doubled estimate
// (§2.1, remark after Theorem 8). All nodes agree on this outcome, since it
// is derived from broadcast counts.
var ErrDensityUnderestimated = errors.New("matmul: output density underestimated")

// Multiply computes one row of the product P = S·T over sr using the
// output-sensitive sparse matrix multiplication of Theorem 8. It must be
// called from within a cc node program by all nodes collectively: node v
// passes row v of S and row v of T and receives row v of P. rhoHat is the
// assumed density ρ̂_ST of the product's support (§2.1); if it turns out
// too small, all nodes return ErrDensityUnderestimated.
func Multiply[E any](nd *cc.Node, sr semiring.Semiring[E], srow, trow matrix.Row[E], rhoHat int) (matrix.Row[E], error) {
	if rhoHat < 1 {
		rhoHat = 1
	}
	if rhoHat > nd.N {
		rhoHat = nd.N
	}
	cs := newCube(nd, sr, srow, trow, rhoHat)

	// Step (2): node v computes the product of subcube v.
	sigma1 := cs.identity()
	pmine := cs.compute(sigma1)

	// Step (3), Lemma 12: balance the intermediate product matrices by
	// duplicating dense subtasks across helper nodes.
	counts := nd.BroadcastVal(int64(len(pmine)))
	capPer := int64(rhoHat * cs.par.C)
	var total int64
	for sid := 0; sid < cs.nsub; sid++ {
		total += counts[sid]
	}
	if total > int64(rhoHat)*int64(cs.n)*int64(cs.par.C) {
		return nil, ErrDensityUnderestimated
	}
	sigma2 := buildSigma2(counts, cs.nsub, cs.n, capPer)
	p2 := cs.compute(sigma2)

	// Each responsible node takes its chunk(s) of O(rhoHat*c) entries.
	mine := selectChunks(nd.ID, sigma1, sigma2, counts, func(int) int64 { return capPer }, pmine, p2)

	// Step (4), Lemma 13: balanced summation into output rows.
	return cs.sumIntermediates(mine), nil
}

// MultiplyAuto is the variant of Theorem 8 that does not assume knowledge
// of ρ̂: it starts from an estimate of 1 and doubles on failure, for an
// extra O(log n) factor (§2.1).
func MultiplyAuto[E any](nd *cc.Node, sr semiring.Semiring[E], srow, trow matrix.Row[E]) matrix.Row[E] {
	for rhoHat := 1; ; rhoHat *= 2 {
		row, err := Multiply(nd, sr, srow, trow, rhoHat)
		if err == nil {
			return row
		}
		if rhoHat >= nd.N {
			// rhoHat = n can always accommodate the output; unreachable.
			panic("matmul: MultiplyAuto failed at rhoHat=n: " + err.Error())
		}
	}
}

// buildSigma2 constructs the duplication assignment of Lemma 12: a subcube
// whose product holds nz >= capPer entries gets floor(nz/capPer) helper
// nodes. Sum of helpers is at most n by the density bound.
func buildSigma2(counts []int64, nsub, n int, capPer int64) []int32 {
	sigma := make([]int32, n)
	for v := range sigma {
		sigma[v] = -1
	}
	next := 0
	for sid := 0; sid < nsub; sid++ {
		helpers := int(counts[sid] / capPer)
		for t := 0; t < helpers && next < n; t++ {
			sigma[next] = int32(sid)
			next++
		}
	}
	return sigma
}

// selectChunks returns the intermediate values node me is responsible for:
// for every subcube it computed (via sigma1 and/or sigma2), the chunk(s) of
// up to capPer(sid) entries determined by its position among the subcube's
// responsible nodes (Lemma 12 step (3); Lemma 16 passes each group's own
// capacity).
func selectChunks[E any](me int, sigma1, sigma2 []int32, counts []int64, capPer func(sid int) int64, p1, p2 []triple[E]) []triple[E] {
	var mine []triple[E]
	take := func(sid int, product []triple[E]) {
		if counts[sid] == 0 {
			return
		}
		// Responsible nodes in order: the sigma1 owner first, then sigma2
		// helpers ascending. A node appearing twice takes two chunks. The
		// last responsible node takes any remainder, so no entry is lost
		// even if parameter rounding left the helper pool short.
		var positions []int
		pos := 0
		for _, sigma := range [][]int32{sigma1, sigma2} {
			for v, s := range sigma {
				if int(s) == sid {
					if v == me {
						positions = append(positions, pos)
					}
					pos++
				}
			}
		}
		for _, p := range positions {
			if p == pos-1 {
				mine = append(mine, chunkTail(product, p, capPer(sid))...)
			} else {
				mine = append(mine, chunk(product, p, capPer(sid))...)
			}
		}
	}
	if s1 := int32OrNeg(sigma1, me); s1 >= 0 {
		take(s1, p1)
	}
	if s2 := int32OrNeg(sigma2, me); s2 >= 0 && s2 != int32OrNeg(sigma1, me) {
		take(s2, p2)
	}
	return mine
}

func int32OrNeg(sigma []int32, v int) int {
	if v < 0 || v >= len(sigma) {
		return -1
	}
	return int(sigma[v])
}

func chunk[E any](product []triple[E], idx int, capPer int64) []triple[E] {
	lo := int64(idx) * capPer
	hi := lo + capPer
	if lo >= int64(len(product)) {
		return nil
	}
	if hi > int64(len(product)) {
		hi = int64(len(product))
	}
	return product[lo:hi]
}

// chunkTail is chunk for the last responsible node: it takes everything
// from its chunk start to the end of the product.
func chunkTail[E any](product []triple[E], idx int, capPer int64) []triple[E] {
	lo := int64(idx) * capPer
	if lo >= int64(len(product)) {
		return nil
	}
	return product[lo:]
}

// sumIntermediates implements Lemma 13: the intermediate values held by all
// nodes are summed into the output matrix, one row per node, in
// O(maxHeld/n) repetitions of (sort, combine, boundary-fix, route-to-row).
func (cs *cubeState[E]) sumIntermediates(mine []triple[E]) matrix.Row[E] {
	nd, sr, n := cs.nd, cs.sr, cs.n
	heldCounts := nd.BroadcastVal(int64(len(mine)))
	reps := 0
	for _, c := range heldCounts {
		if r := int((c + int64(n) - 1) / int64(n)); r > reps {
			reps = r
		}
	}

	acc := make([]E, n)
	hit := make([]bool, n)
	for rep := 0; rep < reps; rep++ {
		lo := rep * n
		hi := lo + n
		if lo > len(mine) {
			lo = len(mine)
		}
		if hi > len(mine) {
			hi = len(mine)
		}
		batch := mine[lo:hi]

		recs := make([]cc.Rec, 0, len(batch))
		for _, t := range batch {
			c, d := sr.Enc(t.val)
			pos := int64(t.row)*int64(n) + int64(t.col)
			recs = append(recs, cc.Rec{Key: pos, M: cc.Msg{A: int64(t.row), B: int64(t.col), C: c, D: d}})
		}
		res := nd.Sort(recs)

		// Combine runs with equal position within my sorted batch.
		var sums []triple[E]
		for _, r := range res.Recs {
			t := triple[E]{row: int32(r.M.A), col: int32(r.M.B), val: sr.Dec(r.M.C, r.M.D)}
			if len(sums) > 0 && sums[len(sums)-1].row == t.row && sums[len(sums)-1].col == t.col {
				sums[len(sums)-1].val = sr.Add(sums[len(sums)-1].val, t.val)
			} else {
				sums = append(sums, t)
			}
		}

		// Boundary resolution: broadcast min/max positions; the smallest
		// node holding a position owns it; only a node's minimum position
		// can be owned elsewhere (positions are globally sorted).
		minPos, maxPos := int64(-1), int64(-1)
		if len(sums) > 0 {
			minPos = int64(sums[0].row)*int64(n) + int64(sums[0].col)
			maxPos = int64(sums[len(sums)-1].row)*int64(n) + int64(sums[len(sums)-1].col)
		}
		mins := nd.BroadcastVal(minPos)
		maxs := nd.BroadcastVal(maxPos)
		owner := func(pos int64) int {
			for v := 0; v < n; v++ {
				if mins[v] >= 0 && mins[v] <= pos && pos <= maxs[v] {
					return v
				}
			}
			return nd.ID
		}
		var boundary []cc.Packet
		if len(sums) > 0 {
			if own := owner(minPos); own != nd.ID {
				t := sums[0]
				sums = sums[1:]
				c, d := sr.Enc(t.val)
				boundary = append(boundary, cc.Packet{Dst: int32(own), M: cc.Msg{A: int64(t.row), B: int64(t.col), C: c, D: d}})
			}
		}
		for _, m := range nd.Sync(boundary) {
			t := triple[E]{row: int32(m.A), col: int32(m.B), val: sr.Dec(m.C, m.D)}
			merged := false
			for i := range sums {
				if sums[i].row == t.row && sums[i].col == t.col {
					sums[i].val = sr.Add(sums[i].val, t.val)
					merged = true
					break
				}
			}
			if !merged {
				sums = append(sums, t)
			}
		}

		// Deliver sums to row owners.
		final := make([]cc.Packet, 0, len(sums))
		for _, t := range sums {
			c, d := sr.Enc(t.val)
			final = append(final, cc.Packet{Dst: t.row, M: cc.Msg{A: int64(t.row), B: int64(t.col), C: c, D: d}})
		}
		for _, m := range nd.Route(final) {
			col := int(m.B)
			v := sr.Dec(m.C, m.D)
			if hit[col] {
				acc[col] = sr.Add(acc[col], v)
			} else {
				hit[col] = true
				acc[col] = v
			}
		}
	}

	row := make(matrix.Row[E], 0, 16)
	for j := 0; j < n; j++ {
		if hit[j] && !sr.IsZero(acc[j]) {
			row = append(row, matrix.Entry[E]{Col: int32(j), Val: acc[j]})
		}
	}
	return row
}
