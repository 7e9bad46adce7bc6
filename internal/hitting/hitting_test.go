package hitting

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
)

func randSets(n, k int, seed int64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]int32, n)
	for v := range sets {
		seen := map[int32]bool{}
		for len(sets[v]) < k {
			u := int32(rng.Intn(n))
			if !seen[u] {
				seen[u] = true
				sets[v] = append(sets[v], u)
			}
		}
	}
	return sets
}

func hitsAll(inA []bool, sets [][]int32) bool {
	for _, s := range sets {
		if len(s) == 0 {
			continue
		}
		ok := false
		for _, u := range s {
			if inA[u] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func sizeOf(inA []bool) int {
	c := 0
	for _, b := range inA {
		if b {
			c++
		}
	}
	return c
}

// TestGreedyHitsAndSizeBound property-checks the Lemma 4 guarantees of the
// greedy substitute: every set hit, size <= (ln n + 1)(n/k + 1).
func TestGreedyHitsAndSizeBound(t *testing.T) {
	prop := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 2
		k := int(kRaw)%n + 1
		sets := randSets(n, k, seed)
		inA := Greedy(n, sets)
		if !hitsAll(inA, sets) {
			return false
		}
		bound := (math.Log(float64(n)) + 1) * (float64(n)/float64(k) + 1)
		return float64(sizeOf(inA)) <= bound+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyEmptyAndSingletonSets(t *testing.T) {
	sets := [][]int32{nil, {3}, nil, {3}, {1}}
	inA := Greedy(5, sets)
	if !hitsAll(inA, sets) {
		t.Error("greedy missed a set")
	}
	if !inA[3] {
		t.Error("element 3 covers two sets and must be picked")
	}
	if sizeOf(inA) != 2 {
		t.Errorf("size=%d, want 2 (elements 3 and 1)", sizeOf(inA))
	}
}

func TestGreedyDeterministic(t *testing.T) {
	sets := randSets(30, 5, 42)
	a := Greedy(30, sets)
	b := Greedy(30, sets)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy is not deterministic")
		}
	}
}

func TestSeededHits(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		n, k := 40, 6
		sets := randSets(n, k, seed+100)
		inA := Seeded(n, sets, k, seed)
		if !hitsAll(inA, sets) {
			t.Errorf("seed %d: seeded hitting set missed a set", seed)
		}
	}
}

func TestLemma4Rounds(t *testing.T) {
	if r := Lemma4Rounds(2); r != 1 {
		t.Errorf("n=2: rounds=%d, want 1", r)
	}
	// n=65536: log2=16, log2 log2 = 4, cubed = 64.
	if r := Lemma4Rounds(65536); r != 64 {
		t.Errorf("n=65536: rounds=%d, want 64", r)
	}
	// Monotone-ish growth, always positive.
	prev := 0
	for _, n := range []int{4, 16, 256, 4096} {
		r := Lemma4Rounds(n)
		if r < 1 || r < prev {
			t.Errorf("n=%d: rounds=%d not sane", n, r)
		}
		prev = r
	}
}

func TestBoardCollective(t *testing.T) {
	n, k := 16, 4
	sets := randSets(n, k, 7)
	board := NewBoard(n)
	results := make([][]bool, n)
	stats, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
		results[nd.ID] = board.Hit(nd, sets[nd.ID])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < n; v++ {
		for u := 0; u < n; u++ {
			if results[v][u] != results[0][u] {
				t.Fatal("nodes disagree on the hitting set")
			}
		}
	}
	if !hitsAll(results[0], sets) {
		t.Error("collective hitting set missed a set")
	}
	if got, want := stats.Charged["hitting-set"], Lemma4Rounds(n); got != want {
		t.Errorf("charged %d rounds, want %d", got, want)
	}
}

func TestMembers(t *testing.T) {
	inA := []bool{false, true, false, true, true}
	m := Members(inA)
	if len(m) != 3 || m[0] != 1 || m[1] != 3 || m[2] != 4 {
		t.Errorf("Members=%v", m)
	}
}

// TestGreedyRowsMatchesGreedy: GreedyRows over rows, empty and nil rows
// among them, picks the set Greedy picks over the rows' column sets.
func TestGreedyRowsMatchesGreedy(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		sets := randSets(n, rng.Intn(n)+1, seed)
		rows := make([]matrix.Row[int64], n)
		for v, s := range sets {
			if rng.Intn(5) == 0 {
				sets[v] = s[:rng.Intn(2)] // some empty sets, some singletons
			}
			for _, u := range sets[v] {
				rows[v] = append(rows[v], matrix.Entry[int64]{Col: u, Val: rng.Int63()})
			}
		}
		if got, want := GreedyRows(n, rows), Greedy(n, sets); !slices.Equal(got, want) {
			t.Fatalf("seed %d: GreedyRows picked %v, Greedy %v", seed, Members(got), Members(want))
		}
	}
}
