package matmul

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func maxOf(ws []int64) int64 {
	var mx int64
	for _, w := range ws {
		if w > mx {
			mx = w
		}
	}
	return mx
}

func sumOf(ws []int64) int64 {
	var s int64
	for _, w := range ws {
		s += w
	}
	return s
}

func randWeights(n int, maxw int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = rng.Int63n(maxw + 1)
	}
	return ws
}

// TestLemma5Bounds property-checks Lemma 5: groups of size <= ceil(n/k) and
// weight <= W/k + max(w).
func TestLemma5Bounds(t *testing.T) {
	prop := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%60 + 1
		k := int(kRaw)%n + 1
		ws := randWeights(n, 50, seed)
		assign := PartitionBalanced(ws, k)
		sizes := make([]int, k)
		sums := make([]int64, k)
		for i, g := range assign {
			if g < 0 || int(g) >= k {
				return false
			}
			sizes[g]++
			sums[g] += ws[i]
		}
		maxSize := (n + k - 1) / k
		bound := sumOf(ws)/int64(k) + maxOf(ws)
		for g := 0; g < k; g++ {
			if sizes[g] > maxSize {
				return false
			}
			if sums[g] > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLemma6Bounds property-checks Lemma 6: consecutive groups of weight at
// most W/k + max(w), with exactly k+1 monotone boundaries covering [0,n).
func TestLemma6Bounds(t *testing.T) {
	prop := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%60 + 1
		k := int(kRaw)%n + 1
		ws := randWeights(n, 50, seed)
		starts := PartitionConsecutive(ws, k)
		if len(starts) != k+1 || starts[0] != 0 || starts[k] != n {
			return false
		}
		bound := sumOf(ws)/int64(k) + maxOf(ws)
		for g := 0; g < k; g++ {
			if starts[g] > starts[g+1] {
				return false
			}
			var s int64
			for i := starts[g]; i < starts[g+1]; i++ {
				s += ws[i]
			}
			if s > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLemma7Bounds property-checks Lemma 7: consecutive groups
// doubly-bounded by 2(W/k + max w) and 2(U/k + max u).
func TestLemma7Bounds(t *testing.T) {
	prop := func(seedW, seedU int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%60 + 1
		k := int(kRaw)%n + 1
		w := randWeights(n, 50, seedW)
		u := randWeights(n, 70, seedU)
		starts := PartitionConsecutive2(w, u, k)
		if len(starts) != k+1 || starts[0] != 0 || starts[k] != n {
			return false
		}
		boundW := 2 * (sumOf(w)/int64(k) + maxOf(w))
		boundU := 2 * (sumOf(u)/int64(k) + maxOf(u))
		for g := 0; g < k; g++ {
			if starts[g] > starts[g+1] {
				return false
			}
			var sw, su int64
			for i := starts[g]; i < starts[g+1]; i++ {
				sw += w[i]
				su += u[i]
			}
			if sw > boundW || su > boundU {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseParamsBudget(t *testing.T) {
	prop := func(nRaw, sRaw, tRaw, hRaw uint16) bool {
		n := int(nRaw)%500 + 1
		rhoS := int(sRaw)%n + 1
		rhoT := int(tRaw)%n + 1
		rhoHat := int(hRaw)%n + 1
		p := ChooseParams(n, rhoS, rhoT, rhoHat)
		if p.A < 1 || p.B < 1 || p.C < 1 {
			return false
		}
		return p.A*p.B*p.C <= n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseParamsBalancedRegimes(t *testing.T) {
	// Dense inputs and output: the classic 3D split a = b = c = n^{1/3}.
	p := ChooseParams(512, 512, 512, 512)
	if p.A != 8 || p.B != 8 || p.C != 8 {
		t.Errorf("dense params = %+v, want 8,8,8", p)
	}
	// Paper §1.3: two matrices with O(n^{3/2}) entries (ρ = √n) and sparse
	// output multiply in O(1) rounds; the cost terms ρS·a/n etc. must all
	// be O(1). n = 256, ρ = 16.
	p = ChooseParams(256, 16, 16, 16)
	costS := float64(16*p.A) / 256
	costT := float64(16*p.B) / 256
	costP := float64(16*p.C) / 256
	if costS > 4 || costT > 4 || costP > 4 {
		t.Errorf("sqrt-sparse params %+v give costs %.1f %.1f %.1f, want O(1)", p, costS, costT, costP)
	}
}
