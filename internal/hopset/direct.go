package hopset

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/pool"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// BuildDirect constructs the §4 hopset on the host: the same algorithm
// as the collective Build, computed for all nodes at once on the full
// augmented weight matrix w with the matmul kernels (DESIGN.md §12). The
// returned Artifact is byte-identical to Collect over a collective
// Build's per-node Results on the same (graph, params): every step -
// parameter derivation, k-nearest, the greedy hitting set, bunch-edge
// selection, per-level source detection, and the row merges - mirrors
// Build exactly, and each underlying kernel equals its distributed
// counterpart entry-for-entry.
//
// workers bounds each row pass (<= 0 means GOMAXPROCS); the
// result is identical for every value. ctx is checked between product
// iterations, so a canceled build unwinds within one multiply.
func BuildDirect(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], p Params, workers int) (*Artifact, error) {
	art, _, err := BuildDirectFrom(ctx, sr, w, p, nil, nil, workers)
	return art, err
}

// BuildDirectFrom is BuildDirect given a sibling, returning beside the
// artifact the G ∪ H matrix its level loop swept last, which is the one
// the direct queries detect over (DESIGN.md §13, "One copy of G ∪ H"):
// row v is H[v] followed by the entries of w[v] that H[v] does not
// dominate (OverlayRow), and art.Rows[v] is its capacity-clipped leading
// window, so H is held once.
//
// sib, if not nil, is a completed artifact built on the same w whose
// params differ from p at most in Eps, and sibGH its G ∪ H. The bunch stage - k-nearest, the hitting set A_1, the pivots and
// H_0 - depends on (w, k) alone, so when sib was built for the same N and
// K it is read back out of sib and only the ε-dependent level loop runs;
// any other sib (including nil) takes the cold path. The artifact is
// byte-identical to BuildDirect's either way (DESIGN.md §13, "One bunch
// stage per graph"); a derived one shares sib's read-only InA1, PV and
// DPV, and every row equal to sib's - every row outside A_1 among them -
// is sib's own storage, in the artifact and in G ∪ H.
func BuildDirectFrom(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], p Params, sib *Artifact, sibGH *matrix.Mat[semiring.WH], workers int) (*Artifact, *matrix.Mat[semiring.WH], error) {
	sh, err := p.shape(w.N)
	if err != nil {
		return nil, nil, err
	}
	if sib == nil || sib.N != w.N || sib.K != sh.k {
		sib, sibGH = nil, nil
	}
	var art *Artifact
	var h0 *bunches
	if sib != nil {
		art, h0 = bunchesOf(sib)
	} else if art, h0, err = bunchStage(ctx, sr, w, sh.k, workers); err != nil {
		return nil, nil, err
	}
	art.Beta = sh.beta
	gh, err := runLevels(ctx, sr, w, art, h0, sib, sibGH, sh.levels, sh.d, workers)
	if err != nil {
		return nil, nil, err
	}
	return art, gh, nil
}

// bunchStage is the first stage of §4.2.1: k-nearest for all rows at once,
// the greedy hitting set, the pivots and the bunch edges H_0. It returns
// an artifact with its membership and pivots but no Rows, and H_0 as
// bunches, which the level loop's first pass reads row by row.
//
// The k-nearest rows are KNearestRanks': a column and a rank per kept
// node, in the order the row's search settled them, so ranks never
// decrease along a row. The hitting set reads the columns, and does not
// depend on their order within a set. The pivot p(v) is the least-rank
// A_1 node of the row, the lowest column among ties (the rank order is
// LessWH's), and every bunch edge ranks at or below it, so the pivot and
// bunch walks read only the prefix up to p(v)'s rank. The rows are owned
// rather than lent: the stage runs once per engine, so the only search
// their slabs could feed is the next build's bunch stage, and whether
// they survive the collections in between is timing; a rebuild costs the
// same bytes every time (DESIGN.md §13, "who owns which slab, and for how
// long").
//
// H_0 is never held as rows. A bunch edge of v is recorded once, in the
// mirror index of its far endpoint (bunches), and the first pass of the
// level loop assembles each row from its own bunch prefix and its
// mirrored edges in scratch and lays it straight into G ∪ H; the
// k-nearest slabs and the index live until that pass.
func bunchStage(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], k, workers int) (*Artifact, *bunches, error) {
	n := w.N
	if int64(n)*int64(k) > math.MaxInt32 {
		return nil, nil, fmt.Errorf("hopset: %d·%d k-nearest positions overflow the bunch index", n, k)
	}
	cols, ranks, err := disttools.KNearestRanks(ctx, sr, w, k, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("hopset: k-nearest: %w", err)
	}
	inA1 := hitting.Greedy(n, cols)

	art := &Artifact{
		N:    n,
		K:    k,
		InA1: inA1,
		PV:   make([]int32, n),
		DPV:  make([]semiring.WH, n),
	}
	// p(v): the closest A_1 node within N_k(v). The first A_1 node of the
	// row has the least rank; the ones tied with it follow it.
	for v := 0; v < n; v++ {
		art.PV[v], art.DPV[v] = -1, semiring.InfWH
		var top int64
		for i, u := range cols[v] {
			if art.PV[v] >= 0 && ranks[v][i] > top {
				break
			}
			if inA1[u] && (art.PV[v] < 0 || u < art.PV[v]) {
				art.PV[v], top = u, ranks[v][i]
			}
		}
		if art.PV[v] >= 0 {
			art.DPV[v] = sr.Unrank(top)
		}
	}

	// The mirror index, counted and then filled in ascending v.
	b := &bunches{art: art, sr: sr, add: sr, cols: cols, ranks: ranks, k: k, start: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		b.each(v, func(_ int, u int32, _ int64) { b.start[u+1]++ })
	}
	for v := 0; v < n; v++ {
		b.start[v+1] += b.start[v]
	}
	b.at = make([]int32, b.start[n])
	next := slices.Clone(b.start[:n])
	for v := 0; v < n; v++ {
		b.each(v, func(i int, u int32, _ int64) {
			b.at[next[u]] = int32(v*k + i)
			next[u]++
		})
	}
	return art, b, nil
}

// bunches is H_0 as the bunch stage leaves it, read one row at a time
// (row). A cold stage keeps the k-nearest rows and a mirror index: v's own
// bunch edges are a walk of its row (each), and the edges other rows put
// at v - the collective version routes each edge to its other end - are
// at[start[v]:start[v+1]], each the flat position u·k+i of v in row u, in
// ascending u: 4 bytes an edge. A stage read back out of a sibling
// (bunchesOf) reads its rows instead.
type bunches struct {
	art       *Artifact // membership and pivots
	sr        semiring.AugMinPlus
	add       semiring.Semiring[semiring.WH] // sr, boxed once for Combine
	cols      [][]int32
	ranks     [][]int64
	k         int
	start, at []int32
	sib       *Artifact
}

// each hands each bunch edge of a cold stage's v to f: the index i in v's
// row of a node u strictly closer than p(v), or p(v) itself, and u's exact
// weight. A node in A_1, or one without a pivot, has none.
func (b *bunches) each(v int, f func(i int, u int32, wu int64)) {
	pv, dpv := b.art.PV[v], b.art.DPV[v]
	if b.art.InA1[v] || pv < 0 {
		return
	}
	top := b.sr.Rank(dpv)
	for i, u := range b.cols[v] {
		if b.ranks[v][i] > top {
			return
		}
		if wu := b.sr.Unrank(b.ranks[v][i]).W; u != int32(v) && (wu < dpv.W || u == pv) {
			f(i, u, wu)
		}
	}
}

// row returns row v of H_0 in buf's storage, grown as append grows it: in
// column order, one entry per column. A cold stage appends v's own bunch
// edges and its mirrored ones and folds an edge in both endpoints' bunches
// into one entry (Combine); a sibling's row already is one.
func (b *bunches) row(v int, buf matrix.Row[semiring.WH]) matrix.Row[semiring.WH] {
	buf = buf[:0]
	if b.sib != nil {
		for _, e := range b.sib.Rows[v] {
			if !b.art.InA1[v] || !b.art.InA1[e.Col] {
				buf = append(buf, e)
			}
		}
		return buf
	}
	b.each(v, func(_ int, u int32, wu int64) { buf = append(buf, hop(u, wu)) })
	for _, p := range b.at[b.start[v]:b.start[v+1]] {
		u, i := int(p)/b.k, int(p)%b.k
		buf = append(buf, hop(int32(u), b.sr.Unrank(b.ranks[u][i]).W))
	}
	if len(buf) == 0 {
		return buf
	}
	return matrix.Combine(b.add, buf)
}

// hop is the one-hop hopset entry to u at weight w.
func hop(u int32, w int64) matrix.Entry[semiring.WH] {
	return matrix.Entry[semiring.WH]{Col: u, Val: semiring.WH{W: w, H: 1}}
}

// bunchesOf reads the bunch stage back out of a completed artifact. Its
// Rows are H_0 merged with the level loop's clique rows, and the two never
// share an entry: a clique edge joins two A_1 nodes (detection runs from
// A_1 sources only), while every bunch edge (u, c) has u outside A_1 (it
// reaches A_1 only at c = p(u)). So dropping the A_1×A_1 entries leaves
// exactly H_0, already merged; rows outside A_1 hold nothing else and are
// sib's own.
func bunchesOf(sib *Artifact) (*Artifact, *bunches) {
	art := &Artifact{N: sib.N, K: sib.K, InA1: sib.InA1, PV: sib.PV, DPV: sib.DPV}
	return art, &bunches{art: art, sib: sib}
}

// runLevels is the second, ε-dependent stage: iterated bounded hopsets
// (§4.2.1) over the bunch stage art and h0. Level ℓ computes d-hop
// distances between A_1 nodes in G ∪ H^{ℓ-1} and replaces the A_1 clique
// edges with the improved estimates, exactly like the collective loop.
// art.Rows comes out as H_0 ∪ H_ℓ, and the G ∪ H the levels sweep is laid
// out once, in the layout the queries read. The first pass lays G ∪ H_0:
// each worker assembles a row of h0 in its own scratch, and OverlayRow
// copies it into the one exact-size row G ∪ H keeps; a row outside A_1
// over a sibling's bunch stage is the sibling's own. An A_1 row's H_0 is
// then the leading window of that first row, which the levels merge their
// clique edges into, again in one scratch; a level re-lays just the A_1
// rows whose clique edges changed. A level that changes none leaves every
// later level's input, hence output, identical and ends the loop
// (DESIGN.md §13, "the fast build path"). The last matrix swept is G ∪ H
// of the result, which runLevels returns; an A_1 row that came out equal
// to sib's is then sib's too. sib is nil on the cold path.
func runLevels(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *Artifact, h0 *bunches, sib *Artifact, sibGH *matrix.Mat[semiring.WH], levels, d, workers int) (*matrix.Mat[semiring.WH], error) {
	n, inA1 := art.N, art.InA1
	var add semiring.Semiring[semiring.WH] = sr // boxed once, not per merge
	g := matrix.New[semiring.WH](n)
	art.Rows = make([]matrix.Row[semiring.WH], n)
	// lay makes h the hopset row of v: it lays out row v of G ∪ H over h
	// and points art.Rows[v] at h's window of it.
	lay := func(v int, h matrix.Row[semiring.WH]) {
		g.Rows[v], art.Rows[v] = OverlayRow(h, w.Rows[v]), nil
		if len(h) > 0 {
			art.Rows[v] = g.Rows[v][:len(h):len(h)]
		}
	}
	hA := make([]matrix.Row[semiring.WH], n) // H_0 of the A_1 rows
	pool.RunRows(n, workers, func() func(int) {
		var buf matrix.Row[semiring.WH]
		return func(v int) {
			if sib != nil && !inA1[v] {
				art.Rows[v], g.Rows[v] = sib.Rows[v], sibGH.Rows[v]
				return
			}
			buf = h0.row(v, buf)
			lay(v, buf)
			if inA1[v] {
				hA[v] = art.Rows[v]
			}
		}
	})
	aRows := make([]matrix.Row[semiring.WH], n)
	fresh := make([]matrix.Row[semiring.WH], n)
	var merged matrix.Row[semiring.WH]
	for level := 0; level < levels; level++ {
		det, err := disttools.SourceDetectAllRestricted(ctx, g, inA1, d, workers)
		if err != nil {
			return nil, fmt.Errorf("hopset: level %d source detection: %w", level, err)
		}
		// Detection runs from A_1 only, so every clique edge joins two A_1 rows.
		for v, in := range inA1 {
			if !in {
				continue
			}
			fresh[v] = fresh[v][:0]
		}
		for v, in := range inA1 {
			if !in {
				continue
			}
			for _, e := range det.Rows[v] {
				if e.Col != int32(v) {
					fresh[v] = append(fresh[v], hop(e.Col, e.Val))
					fresh[e.Col] = append(fresh[e.Col], hop(int32(v), e.Val))
				}
			}
		}
		changed := false
		for v, in := range inA1 {
			if !in {
				continue
			}
			row := matrix.Combine(add, fresh[v])
			if slices.Equal(row, aRows[v]) {
				continue
			}
			changed = true
			aRows[v] = slices.Clone(row)
			merged = matrix.Combine(add, append(append(merged[:0], hA[v]...), row...))
			lay(v, merged)
		}
		if !changed {
			break
		}
	}
	if sib != nil {
		for v, in := range inA1 {
			if in && slices.Equal(art.Rows[v], sib.Rows[v]) {
				art.Rows[v], g.Rows[v] = sib.Rows[v], sibGH.Rows[v]
			}
		}
	}
	return g, nil
}

// OverlayRow is row v of G ∪ H in the layout the direct queries detect
// over: the hopset row h, then every entry of the base row that h does
// not dominate - has its column with a value no larger - in one new
// allocation of exactly that size; an empty h gives base itself. So a row
// is two column-ordered runs, and a column may appear in both when a
// graph entry is strictly lighter than H's: a built artifact never has
// one (a hopset entry (W, 1) is a path, never above the edge in its
// column), but a snapshot is outside input. Taking the least value per
// column gives MergeRows(h, base) either way, which is all
// SourceDetectPanel reads. The row never shares storage with h, so h may
// live in a slab that dies with its build.
func OverlayRow(h, base matrix.Row[semiring.WH]) matrix.Row[semiring.WH] {
	if len(h) == 0 {
		return base
	}
	extra, i := 0, 0
	for _, e := range base {
		if !dominated(h, &i, e) {
			extra++
		}
	}
	row := make(matrix.Row[semiring.WH], len(h), len(h)+extra)
	copy(row, h)
	i = 0
	for _, e := range base {
		if !dominated(h, &i, e) {
			row = append(row, e)
		}
	}
	return row
}

// dominated reports whether h holds e's column with a value no larger
// than e's, walking h from *i on past the columns below e's. The walk
// assumes h in column order; were it not, it only keeps more graph
// entries, never drops one h does not dominate.
func dominated(h matrix.Row[semiring.WH], i *int, e matrix.Entry[semiring.WH]) bool {
	for *i < len(h) && h[*i].Col < e.Col {
		*i++
	}
	return *i < len(h) && h[*i].Col == e.Col && !semiring.LessWH(e.Val, h[*i].Val)
}
