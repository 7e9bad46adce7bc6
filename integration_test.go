package ccsp

import (
	"context"
	"reflect"
	"testing"

	"github.com/congestedclique/ccsp/internal/stretch"
)

// TestPublicDeterminism: the paper's algorithms are deterministic - two
// identical invocations must agree on every estimate and on the stats.
func TestPublicDeterminism(t *testing.T) {
	gr := testGraph(24, 30, 8, 11)
	r1, err := APSPWeighted(context.Background(), gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := APSPWeighted(context.Background(), gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Dist, r2.Dist) {
		t.Error("APSP estimates differ between identical runs")
	}
	// CollectiveTime is wall-clock and varies run to run; everything else
	// must match exactly.
	r1.Stats.CollectiveTime, r2.Stats.CollectiveTime = nil, nil
	if !reflect.DeepEqual(r1.Stats, r2.Stats) {
		t.Errorf("stats differ: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

// TestPresetPaper: the proof-faithful constants also hold their guarantee
// through the public API (small size; the paper preset's hop budget is
// large).
func TestPresetPaper(t *testing.T) {
	gr := testGraph(16, 16, 5, 12)
	eps := 1.0
	res, err := APSPWeighted(context.Background(), gr, Options{Epsilon: eps, Preset: PresetPaper})
	if err != nil {
		t.Fatal(err)
	}
	if err := stretch.Check(gr.g, nil, res.Dist, stretch.TwoPlusW(eps, gr.MaxWeight())).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndPipeline chains the public tools the way a downstream user
// would: k-nearest to pick landmarks, MSSP for sketches, SSSP for exact
// routes - all on one graph, checking cross-consistency.
func TestEndToEndPipeline(t *testing.T) {
	gr := testGraph(30, 40, 6, 13)

	kn, err := KNearest(context.Background(), gr, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Landmarks: every node's farthest of its 5-nearest.
	seen := map[int]bool{}
	var landmarks []int
	for v := 0; v < gr.N() && len(landmarks) < 5; v += 7 {
		l := kn.Neighbors[v][len(kn.Neighbors[v])-1].Node
		if !seen[l] {
			seen[l] = true
			landmarks = append(landmarks, l)
		}
	}
	ms, err := MSSP(context.Background(), gr, landmarks, Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ms.Sources {
		ss, err := SSSP(context.Background(), gr, l, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < gr.N(); v++ {
			approx, err := ms.Distance(v, l)
			if err != nil {
				t.Fatal(err)
			}
			exact := ss.Dist[v]
			if exact >= Unreachable {
				continue
			}
			if approx < exact || float64(approx) > 1.25*float64(exact)+1e-9 {
				t.Fatalf("landmark %d node %d: approx %d vs exact %d", l, v, approx, exact)
			}
		}
	}
}

// TestUnreachableConstant pins the public sentinel to the internal one.
func TestUnreachableConstant(t *testing.T) {
	if Unreachable != 1<<60 {
		t.Fatalf("Unreachable=%d, want 2^60", Unreachable)
	}
}
