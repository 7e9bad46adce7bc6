// Package matmul implements the paper's distributed matrix multiplication
// machinery on the Congested Clique (§2): the partition lemmas (Lemmas
// 5-7), the cube partitioning of Lemma 9, the balanced delivery of Lemmas
// 10-12, balanced summation (Lemma 13), output-sensitive sparse matrix
// multiplication (Theorem 8) and sparse matrix multiplication with on-line
// sparsification of the output (Theorem 14).
package matmul

import (
	"math"
	"sort"
)

// PartitionBalanced implements Lemma 5: it partitions indices [0,n) into k
// groups of size at most ceil(n/k) such that each group's weight is at most
// W/k + max(w). It returns the group assignment per index. The construction
// sorts by weight (descending, ties by index) and deals round-robin, which
// realizes the bound deterministically; every node computes it identically
// from globally known weights.
func PartitionBalanced(weights []int64, k int) []int32 {
	n := len(weights)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if weights[idx[a]] != weights[idx[b]] {
			return weights[idx[a]] > weights[idx[b]]
		}
		return idx[a] < idx[b]
	})
	assign := make([]int32, n)
	for t, i := range idx {
		assign[i] = int32(t % k)
	}
	return assign
}

// PartitionConsecutive implements Lemma 6: it partitions [0,n) into at most
// k groups of consecutive indices, each of weight at most W/k + max(w). It
// returns half-open boundaries: group j is [starts[j], starts[j+1]), with
// len(starts) == k+1 (trailing groups may be empty).
func PartitionConsecutive(weights []int64, k int) []int {
	n := len(weights)
	var total int64
	for _, w := range weights {
		total += w
	}
	// Close a group once it reaches ceil(W/k): closed groups then weigh at
	// most ceil(W/k)-1+max(w) <= W/k + max(w), and at most k-1 groups close
	// before the remainder (at most W/k) forms the last group.
	target := (total + int64(k) - 1) / int64(k)
	starts := make([]int, 0, k+1)
	starts = append(starts, 0)
	var acc int64
	for i := 0; i < n && len(starts) < k; i++ {
		acc += weights[i]
		if total > 0 && acc >= target {
			starts = append(starts, i+1)
			acc = 0
		}
	}
	for len(starts) < k+1 {
		starts = append(starts, n)
	}
	starts[k] = n
	return starts
}

// PartitionConsecutive2 implements Lemma 7: it partitions [0,n) into at
// most k groups of consecutive indices such that each group's w-weight is at
// most 2(W/k + max w) and its u-weight is at most 2(U/k + max u). It
// returns half-open boundaries of length k+1, built by interleaving the
// fenceposts of the two Lemma 6 partitions and keeping every other one.
func PartitionConsecutive2(w, u []int64, k int) []int {
	n := len(w)
	sw := PartitionConsecutive(w, k)
	su := PartitionConsecutive(u, k)
	// Ends of the 2k groups, in sorted order (both lists are sorted; merge).
	ends := make([]int, 0, 2*k)
	i, j := 1, 1
	for i <= k || j <= k {
		switch {
		case i > k:
			ends = append(ends, su[j])
			j++
		case j > k:
			ends = append(ends, sw[i])
			i++
		case sw[i] <= su[j]:
			ends = append(ends, sw[i])
			i++
		default:
			ends = append(ends, su[j])
			j++
		}
	}
	starts := make([]int, k+1)
	for t := 1; t <= k; t++ {
		// Group t is (ends[2t-2], ends[2t]] in the paper's closed notation;
		// half-open: [prev, ends[2t-1]) taking every other fencepost.
		starts[t] = ends[2*t-1]
	}
	starts[k] = n
	for t := 1; t <= k; t++ {
		if starts[t] < starts[t-1] {
			starts[t] = starts[t-1]
		}
	}
	return starts
}

// Params holds the subtask-shape parameters a, b, c of §2.1.1: the cube V³
// is split into (at most) n subcubes of shape (n/b) × (n/c) × (n/a), chosen
// to optimize ρS·a/n + ρT·b/n + ρ̂·c/n subject to a·b·c ≤ n.
type Params struct {
	A, B, C int
}

// ChooseParams computes the algorithm parameters of §2.1.1 from the input
// densities and the (known or assumed) output density, clamped to integers
// with A·B·C ≤ n. Rounding costs at most a constant factor (§2.1.1).
func ChooseParams(n, rhoS, rhoT, rhoHat int) Params {
	fs, ft, fh, fn := float64(rhoS), float64(rhoT), float64(rhoHat), float64(n)
	cStar := math.Cbrt(fs*ft*fn) / math.Pow(fh, 2.0/3.0)
	aStar := math.Cbrt(ft*fh*fn) / math.Pow(fs, 2.0/3.0)
	bStar := math.Cbrt(fs*fh*fn) / math.Pow(ft, 2.0/3.0)

	c := clampInt(int(cStar), 1, n)
	rem := n / c
	if rem < 1 {
		rem = 1
	}
	// If flooring c left a*·b* over budget, scale both down proportionally.
	if aStar*bStar > float64(rem) {
		scale := math.Sqrt(float64(rem) / (aStar * bStar))
		aStar *= scale
		bStar *= scale
	}
	a := clampInt(int(aStar), 1, rem)
	b := clampInt(int(bStar), 1, rem/a)
	return Params{A: a, B: b, C: c}
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
