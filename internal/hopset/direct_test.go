package hopset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hitting"
	"github.com/congestedclique/ccsp/internal/matmul"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/stretch"
	"github.com/congestedclique/ccsp/internal/wire"
)

// buildDirectRef is BuildDirect as it stood before the fast build path
// (DESIGN.md §13): every level re-merges all n rows of G ∪ H and runs the
// unrestricted sparse SourceDetectAll for all d-1 products, and all levels
// run. It is the reference BuildDirect's artifact bytes are pinned against.
func buildDirectRef(ctx context.Context, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], p Params, workers int) (*Artifact, error) {
	n := w.N
	if p.Eps <= 0 || p.Eps > 1 {
		return nil, fmt.Errorf("hopset: invalid eps %v", p.Eps)
	}
	// Parameter derivation, identical to Build.
	k := p.K
	if k == 0 {
		k = int(math.Ceil(math.Sqrt(float64(n)) * math.Log2(float64(n)+1)))
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	levels := p.Levels
	if levels == 0 {
		levels = bits.Len(uint(n - 1)) // ceil(log2 n)
	}
	if levels < 1 {
		levels = 1
	}
	bf := p.BetaFactor
	if bf == 0 {
		bf = 12
	}
	beta := int(math.Ceil(bf * float64(levels) / p.Eps))
	if beta < 3 {
		beta = 3
	}
	hopCap := p.HopCap
	if hopCap == 0 {
		hopCap = n
	}
	d := 4 * beta
	if d > hopCap {
		d = hopCap
	}
	if d < 1 {
		d = 1
	}

	// Bunch computation via k-nearest (§4.2.1), all rows at once.
	// All ⌈log₂ k⌉ squarings on the generic kernel, as the collective
	// KNearest runs them, where KNearestAll runs one truncated
	// lexicographic Dijkstra per row.
	knear := matrix.Filter[semiring.WH](sr, w, k)
	for t := 0; t < bits.Len(uint(k-1)); t++ {
		knear = matmul.KernelMulFilteredGeneric[semiring.WH](sr, knear, knear, k, workers)
	}
	sets := make([][]int32, n)
	for v := 0; v < n; v++ {
		sv := make([]int32, 0, len(knear.Rows[v]))
		for _, e := range knear.Rows[v] {
			sv = append(sv, e.Col)
		}
		sets[v] = sv
	}
	inA1 := hitting.Greedy(n, sets)

	art := &Artifact{
		N:    n,
		Beta: beta,
		K:    k,
		InA1: inA1,
		Rows: make([]matrix.Row[semiring.WH], n),
		PV:   make([]int32, n),
		DPV:  make([]semiring.WH, n),
	}
	// p(v): the closest A_1 node within N_k(v).
	for v := 0; v < n; v++ {
		art.PV[v], art.DPV[v] = -1, semiring.InfWH
		for _, e := range knear.Rows[v] {
			if inA1[e.Col] && semiring.LessWH(e.Val, art.DPV[v]) {
				art.PV[v] = e.Col
				art.DPV[v] = e.Val
			}
		}
	}

	// H_0: bunch edges of nodes outside A_1, symmetrized at both
	// endpoints (the collective version routes each edge to its other
	// end; here we append to both rows directly - MergeRows makes the
	// accumulation order irrelevant).
	h0 := make([]matrix.Row[semiring.WH], n)
	for v := 0; v < n; v++ {
		if inA1[v] || art.PV[v] < 0 {
			continue
		}
		for _, e := range knear.Rows[v] {
			if e.Col == int32(v) {
				continue
			}
			if e.Val.W < art.DPV[v].W || e.Col == art.PV[v] {
				h0[v] = append(h0[v], matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val.W, H: 1}})
				h0[e.Col] = append(h0[e.Col], matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{W: e.Val.W, H: 1}})
			}
		}
	}
	for v := 0; v < n; v++ {
		h0[v] = matrix.MergeRows(sr, h0[v])
	}

	// Iterated bounded hopsets (§4.2.1): level ℓ computes d-hop distances
	// between A_1 nodes in G ∪ H^{ℓ-1} and replaces the A_1 clique edges
	// with the improved estimates, exactly like the collective loop.
	aRows := make([]matrix.Row[semiring.WH], n)
	g := matrix.New[semiring.WH](n)
	for level := 0; level < levels; level++ {
		for v := 0; v < n; v++ {
			g.Rows[v] = matrix.MergeRows(sr, w.Rows[v], h0[v], aRows[v])
		}
		det, err := disttools.SourceDetectAll[semiring.WH](ctx, sr, g, inA1, d, workers)
		if err != nil {
			return nil, fmt.Errorf("hopset: level %d source detection: %w", level, err)
		}
		fresh := make([]matrix.Row[semiring.WH], n)
		for v := 0; v < n; v++ {
			if !inA1[v] {
				continue
			}
			for _, e := range det.Rows[v] {
				if e.Col == int32(v) {
					continue
				}
				fresh[v] = append(fresh[v], matrix.Entry[semiring.WH]{Col: e.Col, Val: semiring.WH{W: e.Val.W, H: 1}})
				fresh[e.Col] = append(fresh[e.Col], matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{W: e.Val.W, H: 1}})
			}
		}
		for v := 0; v < n; v++ {
			aRows[v] = matrix.MergeRows(sr, fresh[v])
		}
	}

	for v := 0; v < n; v++ {
		art.Rows[v] = matrix.MergeRows(sr, h0[v], aRows[v])
	}
	return art, nil
}

func encoded(a *Artifact) []byte {
	var w wire.Writer
	EncodeArtifact(&w, a)
	return w.Bytes()
}

// buildCases are the graphs and presets the build oracles run over:
// weighted, unit-weight, tree, path and disconnected graphs, zero-weight
// edges, a path whose every edge is the heaviest graph.MaxWeightFor
// admits (ranks at the top of their range), and a unit-weight grid and
// star, where whole rings of nodes tie (TestBuildCasesHaveTies holds
// them to ties at a pivot's rank and at the k-th rank); Paper runs the
// level loop at d = n, Practical well below it, a small K makes A_1
// large, a hop cap makes each level build on the last and one shallow
// level makes the clique edges depend on ε.
func buildCases() (map[string]*graph.Graph, map[string]Params) {
	split := graph.New(30) // two components: A_1 clique edges never span them
	for v := 1; v < 30; v++ {
		if v != 15 {
			split.MustAddEdge(v-1, v, int64(v%4)+1)
		}
	}
	zero := graph.New(36)
	rng := rand.New(rand.NewSource(75))
	for v := 1; v < zero.N; v++ {
		zero.MustAddEdge(v, rng.Intn(v), rng.Int63n(3)) // a third of them weigh 0
	}
	for e := 0; e < 30; e++ {
		if u, v := rng.Intn(zero.N), rng.Intn(zero.N); u != v {
			zero.MustAddEdge(u, v, rng.Int63n(3))
		}
	}
	graphs := map[string]*graph.Graph{
		"zero-weight":  zero,
		"max-weight":   lineGraph(24, graph.MaxWeightFor(24)),
		"sparse":       randGraph(48, 24, 20, 71),
		"dense":        randGraph(32, 200, 50, 72),
		"tree":         randGraph(40, 0, 9, 73),
		"unit-weight":  randGraph(40, 60, 1, 74),
		"unit-path":    lineGraph(36, 1),
		"disconnected": split,
		"unit-grid":    graphgen.Grid(8, 8, graphgen.Weights{Max: 1}, 76),
		"unit-star":    graphgen.Star(24, graphgen.Weights{Max: 1}, 77),
	}
	presets := map[string]Params{
		"practical":       Practical(0.5),
		"paper":           Paper(0.5),
		"practical-small": {Eps: 0.25, BetaFactor: 2, K: 3}, // small bunches: a large A_1
		// d = 3: a level reaches only A_1 nodes three hops away, so every
		// level's clique edges feed the next and the re-merge matters.
		"hop-capped": {Eps: 0.5, BetaFactor: 2, K: 3, HopCap: 3},
		// One level at d = 4β = 16 < n, and β follows ε: builds at another
		// ε see other clique edges (everywhere else d reaches n).
		"shallow": {Eps: 0.5, BetaFactor: 2, Levels: 1, K: 3},
		// K = 5: a grid row keeps its node and four more, so a ring ties
		// at the pivot's rank or at the k-th (TestBuildCasesHaveTies).
		"small-k": {Eps: 0.5, BetaFactor: 2, K: 5},
	}
	return graphs, presets
}

// TestBuildCasesHaveTies: the tie cases of buildCases are not vacuous. Under
// a small K, some row of them has two or more A_1 nodes at its pivot's
// (W, H) within its k nearest - so p(v) is decided by column - and some
// row has more nodes at its k-th (W, H) than it keeps - so the kept set
// is. Both are read off KNearestAll's rows, not the bunch stage's.
func TestBuildCasesHaveTies(t *testing.T) {
	ctx := context.Background()
	graphs, presets := buildCases()
	pivotTies, kthTies := 0, 0
	for _, gname := range []string{"unit-grid", "unit-star"} {
		g := graphs[gname]
		sr, w := g.AugSemiring(), g.WeightMatrix()
		for _, pname := range []string{"practical-small", "small-k"} {
			art, err := BuildDirect(ctx, sr, w, presets[pname], 1)
			if err != nil {
				t.Fatal(err)
			}
			kept, err := disttools.KNearestAll[semiring.WH](ctx, sr, w, art.K, 1)
			if err != nil {
				t.Fatal(err)
			}
			all, err := disttools.KNearestAll[semiring.WH](ctx, sr, w, g.N, 1)
			if err != nil {
				t.Fatal(err)
			}
			for v, row := range kept.Rows {
				atPivot, kth := 0, row[0].Val
				for _, e := range row {
					if art.InA1[e.Col] && e.Val == art.DPV[v] {
						atPivot++
					}
					if semiring.LessWH(kth, e.Val) {
						kth = e.Val
					}
				}
				atKth := 0
				for _, e := range all.Rows[v] {
					if e.Val == kth {
						atKth++
					}
				}
				for _, e := range row {
					if e.Val == kth {
						atKth--
					}
				}
				if atPivot >= 2 {
					pivotTies++
				}
				if atKth > 0 {
					kthTies++
				}
			}
		}
	}
	if pivotTies == 0 {
		t.Error("no row of the tie cases has two A_1 nodes at its pivot's (W, H)")
	}
	if kthTies == 0 {
		t.Error("no row of the tie cases leaves a node at its k-th (W, H) out")
	}
}

// slabRows is H_0 as the bunch stage used to lay it: one slab sized to
// every bunch edge at both endpoints, each edge written into both rows and
// each row folded by Combine. It is the reference TestBunchRowsMatchSlab
// holds the rows the level loop assembles to.
func slabRows(sr semiring.AugMinPlus, art *Artifact, cols [][]int32, ranks [][]int64) []matrix.Row[semiring.WH] {
	n, inA1 := art.N, art.InA1
	bunch := func(v int, f func(u int32, wu int64)) {
		if inA1[v] || art.PV[v] < 0 {
			return
		}
		pv, dpv := art.PV[v], art.DPV[v]
		top := sr.Rank(dpv)
		for i, u := range cols[v] {
			if ranks[v][i] > top {
				return
			}
			if wu := sr.Unrank(ranks[v][i]).W; u != int32(v) && (wu < dpv.W || u == pv) {
				f(u, wu)
			}
		}
	}
	size := make([]int, n)
	total := 0
	for v := 0; v < n; v++ {
		bunch(v, func(u int32, _ int64) {
			size[v]++
			size[u]++
			total += 2
		})
	}
	slab := make([]matrix.Entry[semiring.WH], total)
	h0 := make([]matrix.Row[semiring.WH], n)
	for v, off := 0, 0; v < n; v++ {
		h0[v], off = slab[off:off:off+size[v]], off+size[v]
	}
	for v := 0; v < n; v++ {
		bunch(v, func(u int32, wu int64) {
			h0[v] = append(h0[v], matrix.Entry[semiring.WH]{Col: u, Val: semiring.WH{W: wu, H: 1}})
			h0[u] = append(h0[u], matrix.Entry[semiring.WH]{Col: int32(v), Val: semiring.WH{W: wu, H: 1}})
		})
	}
	for v := range h0 {
		h0[v] = matrix.Combine[semiring.WH](sr, h0[v])
	}
	return h0
}

// TestBunchRowsMatchSlab: every H_0 row the level loop's first pass
// assembles - a cold stage's from its own bunch prefix and the mirror
// index, a derived one's from its sibling's rows - equals the two-endpoint
// slab's, on the build cases (whose ties TestBuildCasesHaveTies holds), at
// K = 1 (A_1 is every node: no bunch edge) and K = n, and on a graph with
// an all-zero row, which has no k-nearest set and so no pivot (PV = -1).
func TestBunchRowsMatchSlab(t *testing.T) {
	ctx := context.Background()
	check := func(name string, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], k int) *Artifact {
		t.Helper()
		art, b, err := bunchStage(ctx, sr, w, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := slabRows(sr, art, b.cols, b.ranks)
		sib, err := BuildDirect(ctx, sr, w, Params{Eps: 0.5, BetaFactor: 2, K: k}, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, derived := bunchesOf(sib)
		var buf matrix.Row[semiring.WH]
		for v := range want {
			if buf = b.row(v, buf); !slices.Equal(buf, want[v]) {
				t.Fatalf("%s k=%d row %d: assembled %v, the slab holds %v", name, k, v, buf, want[v])
			}
			if buf = derived.row(v, buf); !slices.Equal(buf, want[v]) {
				t.Fatalf("%s k=%d row %d: read back from a sibling %v, the slab holds %v", name, k, v, buf, want[v])
			}
		}
		return art
	}
	graphs, presets := buildCases()
	for gname, g := range graphs {
		sr, w := g.AugSemiring(), g.WeightMatrix()
		for _, p := range presets {
			sh, err := p.shape(g.N)
			if err != nil {
				t.Fatal(err)
			}
			check(gname, sr, w, sh.k)
		}
		if art := check(gname, sr, w, 1); slices.Contains(art.InA1, false) {
			t.Fatalf("%s k=1: A_1 is not every node", gname)
		}
		check(gname, sr, w, g.N)
	}

	// Two components, and node 30 with no entry at all, not even its own.
	g := graph.New(32)
	for v := 1; v < 30; v++ {
		if v != 15 {
			g.MustAddEdge(v-1, v, int64(v%4)+1)
		}
	}
	sr, w := g.AugSemiring(), g.WeightMatrix()
	w.Rows[30] = nil
	for _, k := range []int{1, 3, 5, g.N} {
		if art := check("all-zero row", sr, w, k); art.PV[30] != -1 {
			t.Fatalf("k=%d: the all-zero row has pivot %d", k, art.PV[30])
		}
	}
}

// derived reports whether art took its bunch stage from sib: a derived
// build shares the sibling's read-only InA1, a cold one has its own.
func derived(art, sib *Artifact) bool { return &art.InA1[0] == &sib.InA1[0] }

// sameWindow reports whether a and b are one window: equal length and,
// when not empty, the same first element.
func sameWindow[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// checkGH checks a build's G ∪ H against its artifact over w: each row,
// reduced to its least value per column, is the merge of w's row and the
// artifact's, and each artifact row is the capacity-clipped leading window
// of its G ∪ H row.
func checkGH(t *testing.T, name string, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art *Artifact, gh *matrix.Mat[semiring.WH]) {
	t.Helper()
	for v, row := range gh.Rows {
		h := art.Rows[v]
		if got, want := matrix.MergeRows(sr, row), matrix.MergeRows(sr, w.Rows[v], h); !slices.Equal(got, want) {
			t.Fatalf("%s row %d: G ∪ H row %v reduces to %v, want %v", name, v, row, got, want)
		}
		if cap(h) != len(h) || len(h) > 0 && &h[0] != &row[0] {
			t.Fatalf("%s row %d: artifact row is not the clipped leading window of its G ∪ H row", name, v)
		}
	}
}

// TestBuildDirectFromSiblingMatchesCold: the level loop run over a bunch
// stage read back out of a sibling gives the encoded artifact a cold
// BuildDirect gives, at a smaller ε′ and a larger one, serial and pooled,
// with a G ∪ H whose rows hold the artifact's as their leading windows and
// share the sibling's storage wherever the rows are equal; a sibling built
// for another K or another N is not read back.
func TestBuildDirectFromSiblingMatchesCold(t *testing.T) {
	ctx := context.Background()
	graphs, presets := buildCases()
	for gname, g := range graphs {
		sr, w := g.AugSemiring(), g.WeightMatrix()
		for pname, p := range presets {
			sib, sibGH, err := BuildDirectFrom(ctx, sr, w, p, nil, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkGH(t, gname+"/"+pname, sr, w, sib, sibGH)
			for _, eps := range []float64{p.Eps / 2, p.Eps / 4, 1} {
				q := p
				q.Eps = eps
				want, err := BuildDirect(ctx, sr, w, q, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 0} {
					got, gh, err := BuildDirectFrom(ctx, sr, w, q, sib, sibGH, workers)
					if err != nil {
						t.Fatal(err)
					}
					checkGH(t, fmt.Sprintf("%s/%s ε′=%g", gname, pname, eps), sr, w, got, gh)
					for v, row := range got.Rows {
						if slices.Equal(row, sib.Rows[v]) && (!sameWindow(row, sib.Rows[v]) || !sameWindow(gh.Rows[v], sibGH.Rows[v])) {
							t.Fatalf("%s/%s ε′=%g row %d: a row equal to the sibling's is not its storage", gname, pname, eps, v)
						}
					}
					if !derived(got, sib) {
						t.Fatalf("%s/%s ε′=%g: the sibling's bunch stage was not reused", gname, pname, eps)
					}
					if !bytes.Equal(encoded(got), encoded(want)) {
						t.Errorf("%s/%s ε′=%g workers=%d: derived artifact differs from a cold build (edges %d vs %d)",
							gname, pname, eps, workers, got.Edges(), want.Edges())
					}
				}
			}
		}
	}

	// Another K or another N: the sibling's bunch stage is not this one's.
	g := randGraph(48, 24, 20, 71)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	p := Params{Eps: 0.25, BetaFactor: 2, K: 5}
	want, err := BuildDirect(ctx, sr, w, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	otherK, err := BuildDirect(ctx, sr, w, Params{Eps: 0.5, BetaFactor: 2, K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := randGraph(47, 24, 20, 71)
	otherN, err := BuildDirect(ctx, small.AugSemiring(), small.WeightMatrix(), Params{Eps: 0.5, BetaFactor: 2, K: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, sib := range map[string]*Artifact{"K": otherK, "N": otherN} {
		got, _, err := BuildDirectFrom(ctx, sr, w, p, sib, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if derived(got, sib) {
			t.Errorf("a sibling with another %s was read back", name)
		}
		if !bytes.Equal(encoded(got), encoded(want)) {
			t.Errorf("sibling with another %s: artifact differs from a cold build", name)
		}
	}
}

// TestBuildDirectMatchesUnrestrictedReference: restricted per-level
// detection, the changed-rows-only re-merge and the three fixpoint exits
// leave the encoded artifact byte-identical to the old full loop, on both
// presets (Paper runs the level loop at d = n, Practical well below it)
// and with a hop cap that makes each level build on the last, serial and
// pooled, across weighted, unit-weight, tree, path and
// disconnected graphs. Its β is the one Params.Beta derives before any
// build.
func TestBuildDirectMatchesUnrestrictedReference(t *testing.T) {
	graphs, presets := buildCases()
	for gname, g := range graphs {
		sr, w := g.AugSemiring(), g.WeightMatrix()
		for pname, p := range presets {
			want, err := buildDirectRef(context.Background(), sr, w, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			if beta, err := p.Beta(w.N); err != nil || beta != want.Beta {
				t.Errorf("%s/%s: Params.Beta = %d (%v), the build wrote %d", gname, pname, beta, err, want.Beta)
			}
			for _, workers := range []int{1, 0} {
				got, err := BuildDirect(context.Background(), sr, w, p, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encoded(got), encoded(want)) {
					t.Errorf("%s/%s workers=%d: artifact bytes differ from the unrestricted reference (edges %d vs %d)",
						gname, pname, workers, got.Edges(), want.Edges())
				}
			}
		}
	}
}

// countdownCtx reports context.Canceled from its (after+1)-th Err call on
// and counts the calls: BuildDirect polls Err once before every product,
// so the count places a cancellation at an exact product boundary.
type countdownCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestBuildDirectCancelMidBuild: a context canceled anywhere in the build
// - inside k-nearest, inside a level's detection, at the last product -
// surfaces as a context.Canceled-matchable error at the very next poll,
// i.e. within one product.
func TestBuildDirectCancelMidBuild(t *testing.T) {
	g := randGraph(64, 96, 20, 81)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	full := &countdownCtx{Context: context.Background(), after: math.MaxInt64}
	if _, err := BuildDirect(full, sr, w, Practical(0.5), 0); err != nil {
		t.Fatal(err)
	}
	polls := full.calls.Load()
	if polls < 4 {
		t.Fatalf("a full build polled ctx only %d times", polls)
	}
	for _, after := range []int64{0, 1, polls / 2, polls - 1} {
		ctx := &countdownCtx{Context: context.Background(), after: after}
		art, err := BuildDirect(ctx, sr, w, Practical(0.5), 0)
		if !errors.Is(err, context.Canceled) || art != nil {
			t.Errorf("canceled at poll %d of %d: got (%v, %v), want a context.Canceled error", after+1, polls, art, err)
		}
		if n := ctx.calls.Load(); n != after+1 {
			t.Errorf("canceled at poll %d of %d: build polled %d more times before returning", after+1, polls, n-after-1)
		}
	}
}

// TestStretchCatchesDroppedLevels: a hopset without its level edges - H_0,
// the bunch stage's output, alone - is not a (β, ε)-hopset, and
// stretch.Check on the β-hop detection over it must say so. With the
// default K the bunches of a path are so wide that H_0 alone reaches
// every pair within β (the levels add 6 of 277 136 entries at n = 1024),
// so the test narrows them to K = 8; the full artifact must still pass.
func TestStretchCatchesDroppedLevels(t *testing.T) {
	const n = 256
	g := graphgen.Path(n, graphgen.Weights{Max: 5}, 3)
	ctx, sr, w := context.Background(), g.AugSemiring(), g.WeightMatrix()
	p := Practical(0.5)
	p.K = 8
	full, fullGH, err := BuildDirectFrom(ctx, sr, w, p, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, h0, err := bunchStage(ctx, sr, w, p.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	h0GH := matrix.New[semiring.WH](n)
	var buf matrix.Row[semiring.WH]
	for v := range h0GH.Rows {
		buf = h0.row(v, buf)
		h0GH.Rows[v] = OverlayRow(buf, w.Rows[v])
	}
	srcs := []int{0, n / 3, n - 1}
	inS := make([]bool, n)
	for _, s := range srcs {
		inS[s] = true
	}
	check := func(gh *matrix.Mat[semiring.WH]) stretch.Report {
		panel, err := disttools.SourceDetectPanel(ctx, gh, inS, full.Beta, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer panel.Release()
		est := make([][]int64, n)
		for v := range est {
			est[v] = panel.W[v*len(srcs) : (v+1)*len(srcs)]
		}
		return stretch.Check(g, srcs, est, stretch.OnePlus(p.Eps))
	}
	if err := check(fullGH).Err(); err != nil {
		t.Errorf("full hopset: %v", err)
	}
	if r := check(h0GH); r.Kind != stretch.Missing && r.Kind != stretch.Over {
		t.Errorf("H_0 alone at β=%d: want a reachable pair with no estimate or one over the bound, got %q", full.Beta, r.Kind)
	}
}
