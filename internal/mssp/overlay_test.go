package mssp_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/internal/apsp"
	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// overlayGraph is a connected graph on n nodes: a random attachment tree
// plus extra random edges, every weight drawn by weight.
func overlayGraph(n, extra int, seed int64, weight func(*rand.Rand) int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, rng.Intn(v), weight(rng))
	}
	for e := 0; e < extra; e++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(u, v, weight(rng))
		}
	}
	return g
}

// lowDegree is the §6.3 subgraph G' of w, as the engine builds it: a node
// of |N(v)| >= ⌈√n⌉ (v included) gets a nil row and leaves every other.
func lowDegree(w *matrix.Mat[semiring.WH]) *matrix.Mat[semiring.WH] {
	degs := make([]int64, w.N)
	for v, row := range w.Rows {
		degs[v] = int64(len(row))
	}
	return apsp.LowDegree(w, degs)
}

// sameStorage reports whether a and b are one window: equal length and,
// when not empty, the same first element.
func sameStorage[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// reversed is m with every row's entries in reverse order.
func reversed(m *matrix.Mat[semiring.WH]) *matrix.Mat[semiring.WH] {
	out := matrix.New[semiring.WH](m.N)
	for v, row := range m.Rows {
		out.Rows[v] = slices.Clone(row)
		slices.Reverse(out.Rows[v])
	}
	return out
}

// samePanels checks that SourceDetectPanel answers the same over got as
// over want, and over got with its rows reversed, for random S and for d
// binding (1 to 3) and not (n).
func samePanels(t *testing.T, name string, got, want *matrix.Mat[semiring.WH], seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	rev := reversed(got)
	for _, size := range []int{1, 3, got.N} {
		inS := make([]bool, got.N)
		for c := 0; c < size; c++ {
			inS[rng.Intn(got.N)] = true
		}
		for _, d := range []int{1, 2, 3, got.N} {
			ref, err := disttools.SourceDetectPanel(ctx, want, inS, d, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range []*matrix.Mat[semiring.WH]{got, rev} {
				p, err := disttools.SourceDetectPanel(ctx, m, inS, d, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p.Sources, ref.Sources) || !slices.Equal(p.W, ref.W) {
					t.Errorf("%s |S|≈%d d=%d reversed=%v: panel differs from MergeGH's", name, size, d, i == 1)
				}
				p.Release()
			}
			ref.Release()
		}
	}
}

// checkOverlay runs OverlayGH on art over w (with its sibling sib and the
// sibling's overlay sibGH, if any) and checks it against MergeGH: every
// row reduced to its least value per column is MergeGH's row, art's
// values do not change, each art row is the capacity-clipped leading
// window of its G ∪ H row, rows equal to the sibling's share its storage,
// and detection answers the same. It returns the overlay.
func checkOverlay(t *testing.T, name string, sr semiring.AugMinPlus, w *matrix.Mat[semiring.WH], art, sib *hopset.Artifact, sibGH *matrix.Mat[semiring.WH], seed int64) *matrix.Mat[semiring.WH] {
	t.Helper()
	before := slices.Clone(art.Rows)
	for v := range before {
		before[v] = slices.Clone(before[v])
	}
	want := mssp.MergeGH(sr, w, art)
	gh := mssp.OverlayGH(w, art, sib, sibGH, 2)
	if !reflect.DeepEqual(art.Rows, before) {
		t.Fatalf("%s: the overlay changed the artifact's rows", name)
	}
	for v, row := range gh.Rows {
		if got := matrix.MergeRows(sr, row); !slices.Equal(got, want.Rows[v]) {
			t.Fatalf("%s row %d: overlay %v reduces to %v, MergeGH has %v", name, v, row, got, want.Rows[v])
		}
		h := art.Rows[v]
		if cap(h) != len(h) {
			t.Errorf("%s row %d: artifact row has len %d, cap %d", name, v, len(h), cap(h))
		}
		if !sameStorage(h, row[:len(h)]) {
			t.Errorf("%s row %d: artifact row is not the leading window of its G ∪ H row", name, v)
		}
		if sib != nil && slices.Equal(h, sib.Rows[v]) && (!sameStorage(h, sib.Rows[v]) || !sameStorage(row, sibGH.Rows[v])) {
			t.Errorf("%s row %d: a row equal to the sibling's does not share its storage", name, v)
		}
	}
	samePanels(t, name, gh, want, seed)
	return gh
}

// TestOverlayGH: on random graphs with zero, tied and MaxWeightFor
// weights, over G and over G' (nil high-degree rows), the overlay of a
// cold artifact and of an ε/2 artifact built over it matches MergeGH's
// G ∪ H and leaves the artifact's values alone while holding its rows
// inside the overlay's; the ε/2 artifact shares every row it has in common
// with its sibling, which is every row outside A_1.
func TestOverlayGH(t *testing.T) {
	ctx := context.Background()
	families := map[string]func(*rand.Rand) int64{
		"zero": func(rng *rand.Rand) int64 { return rng.Int63n(3) },
		"tied": func(*rand.Rand) int64 { return 2 },
		"max":  func(rng *rand.Rand) int64 { return graph.MaxWeightFor(48) - rng.Int63n(2) },
	}
	params := map[string]hopset.Params{
		"practical": hopset.Practical(0.5),
		"large-A1":  {Eps: 0.5, BetaFactor: 2, K: 3},
	}
	seed := int64(0)
	for fname, weight := range families {
		for pname, p := range params {
			seed++
			g := overlayGraph(48, 60, seed, weight)
			sr := g.AugSemiring()
			for _, base := range []string{"G", "G'"} {
				w := g.WeightMatrix()
				if base == "G'" {
					w = lowDegree(w)
				}
				name := fmt.Sprintf("%s/%s/%s", fname, pname, base)
				cold, err := hopset.BuildDirect(ctx, sr, w, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				coldGH := checkOverlay(t, name+"/cold", sr, w, cold, nil, nil, seed)
				half, _, err := hopset.BuildDirectFrom(ctx, sr, w, apsp.HopsetParams(p, p.Eps), cold, coldGH, 1)
				if err != nil {
					t.Fatal(err)
				}
				checkOverlay(t, name+"/ε/2", sr, w, half, cold, coldGH, seed)
				for v, in := range half.InA1 {
					if !in && !sameStorage(half.Rows[v], cold.Rows[v]) {
						t.Errorf("%s row %d: an ε/2 row outside A_1 does not share its sibling's", name, v)
					}
				}
			}
		}
	}

	// A snapshot may hold a hopset entry heavier than the graph edge in
	// its column: the lighter graph entry stays beside it, and detection
	// takes the least - also where a row lists the heavier one last.
	g := graph.New(4)
	for v := 1; v < 4; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	heavy := func(col int32, w int64) matrix.Entry[semiring.WH] {
		return matrix.Entry[semiring.WH]{Col: col, Val: semiring.WH{W: w, H: 1}}
	}
	art := &hopset.Artifact{
		N: 4, Beta: 4, K: 1,
		InA1: make([]bool, 4),
		Rows: []matrix.Row[semiring.WH]{{heavy(1, 5), heavy(3, 9)}, {heavy(0, 5)}, nil, {heavy(0, 9)}},
		PV:   []int32{-1, -1, -1, -1},
		DPV:  make([]semiring.WH, 4),
	}
	gh := checkOverlay(t, "heavier-hopset", g.AugSemiring(), g.WeightMatrix(), art, nil, nil, 99)
	if len(gh.Rows[0]) != 4 {
		t.Errorf("heavier-hopset: row 0 is %v, want H's two entries, then the diagonal and the lighter edge", gh.Rows[0])
	}
}
