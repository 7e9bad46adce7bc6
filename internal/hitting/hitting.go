// Package hitting provides the hitting-set primitive of Lemma 4 (cited from
// Parter-Yogev [52]): given sets {S_v} of size >= k, construct a set A of
// size O(n log n / k) hitting every S_v, deterministically, charged at
// O((log log n)^3) rounds.
//
// Substitution note: re-deriving [52]'s derandomized sampler is out of
// scope; we substitute the classical deterministic greedy hitting set, which
// achieves the same O(n log n / k) size bound (greedy set cover against the
// fractional optimum n/k), computed identically by every node from the
// exchanged sets, and charge Lemma 4's round bound through the engine's
// accounting. A seeded sampling variant is provided for ablations.
package hitting

import (
	"math"
	"sort"
	"sync"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
)

// Lemma4Rounds is the round charge of the hitting-set primitive:
// ceil((log2 log2 n)^3) per Lemma 4.
func Lemma4Rounds(n int) int {
	if n < 4 {
		return 1
	}
	ll := math.Log2(math.Log2(float64(n)))
	r := int(math.Ceil(ll * ll * ll))
	if r < 1 {
		r = 1
	}
	return r
}

// Board is the exchange surface for one hitting-set invocation: nodes
// deposit their sets, synchronize through the engine (which charges the
// Lemma 4 rounds), and read back the deterministic result. A Board is
// single-use; allocate one per invocation site.
type Board struct {
	sets [][]int32
	once sync.Once
	inA  []bool
}

// NewBoard returns a Board for an n-node invocation.
func NewBoard(n int) *Board {
	return &Board{sets: make([][]int32, n)}
}

// Hit is the collective hitting-set primitive: node nd contributes its set
// sv (the paper's S_v, known locally, e.g. N_k(v)); the returned membership
// slice is identical at all nodes and must not be mutated. Empty sets are
// vacuously hit. k is used only for the round charge's documentation; the
// greedy construction adapts to the actual sets.
func (b *Board) Hit(nd *cc.Node, sv []int32) []bool {
	b.sets[nd.ID] = sv
	// The Charge collective is a barrier: all deposits happen-before the
	// computation below, which every node then shares via the once-cache.
	nd.Charge("hitting-set", Lemma4Rounds(nd.N))
	b.once.Do(func() {
		b.inA = Greedy(nd.N, b.sets)
	})
	return b.inA
}

// Greedy computes a deterministic greedy hitting set: repeatedly pick the
// element covering the most uncovered sets (ties to the smallest ID).
// Size is at most (ln n + 1)(n/k + 1) when all sets have size >= k.
func Greedy(n int, sets [][]int32) []bool {
	return greedy(n, len(sets), func(si int, _ []int32) []int32 { return sets[si] })
}

// GreedyRows is Greedy over the column sets of rows, read out of the rows
// themselves: the hitting set of the k-nearest rows without an n·k copy
// of their columns.
func GreedyRows[E any](n int, rows []matrix.Row[E]) []bool {
	return greedy(n, len(rows), func(si int, buf []int32) []int32 {
		for _, e := range rows[si] {
			buf = append(buf, e.Col)
		}
		return buf
	})
}

// greedy is the one body of Greedy and GreedyRows over m sets: set(si,
// buf) returns set si, appended to buf when it is not at hand as a
// []int32, so every pass over the sets reuses one buffer.
func greedy(n, m int, set func(si int, buf []int32) []int32) []bool {
	inA := make([]bool, n)
	covered := make([]bool, m)
	count := make([]int64, n)
	var buf []int32
	remaining, total := 0, 0
	for si := range m {
		s := set(si, buf[:0])
		if len(s) == 0 {
			covered[si] = true
			continue
		}
		remaining++
		total += len(s)
		for _, u := range s {
			count[u]++
		}
		buf = s
	}
	// Inverted index: elem -> set indices, ascending. count[u] is the
	// exact length of where[u], so the lists share one backing array.
	where := make([][]int32, n)
	backing := make([]int32, total)
	off := 0
	for u, c := range count {
		where[u] = backing[off : off : off+int(c)]
		off += int(c)
	}
	for si := range m {
		buf = set(si, buf[:0])
		for _, u := range buf {
			where[u] = append(where[u], int32(si))
		}
	}
	for remaining > 0 {
		best := -1
		var bestCnt int64
		for u := 0; u < n; u++ {
			if count[u] > bestCnt {
				best, bestCnt = u, count[u]
			}
		}
		if best < 0 {
			break // unreachable: every uncovered set has counted elements
		}
		inA[best] = true
		for _, si := range where[best] {
			if covered[si] {
				continue
			}
			covered[si] = true
			remaining--
			buf = set(int(si), buf[:0])
			for _, u := range buf {
				count[u]--
			}
		}
	}
	return inA
}

// Seeded computes a sampling-based hitting set: elements are chosen by a
// deterministic hash with probability p ~ c·ln(n)/k, verified against the
// sets, escalating p until all sets are hit. Used for ablation against
// Greedy; both satisfy the Lemma 4 size bound in expectation/worst case.
func Seeded(n int, sets [][]int32, k int, seed int64) []bool {
	if k < 1 {
		k = 1
	}
	for mult := int64(1); ; mult *= 2 {
		thresh := int64(float64(mult) * math.Log(float64(n)+1) / float64(k) * (1 << 30))
		if thresh >= 1<<30 {
			// Degenerate: take everything that appears in some set.
			inA := make([]bool, n)
			for _, s := range sets {
				for _, u := range s {
					inA[u] = true
				}
			}
			return inA
		}
		inA := make([]bool, n)
		for u := 0; u < n; u++ {
			if hash64(seed, int64(u))&(1<<30-1) < thresh {
				inA[u] = true
			}
		}
		ok := true
		for _, s := range sets {
			if len(s) == 0 {
				continue
			}
			hit := false
			for _, u := range s {
				if inA[u] {
					hit = true
					break
				}
			}
			if !hit {
				ok = false
				break
			}
		}
		if ok {
			return inA
		}
	}
}

func hash64(seed, x int64) int64 {
	h := uint64(seed)*0x9E3779B9 + uint64(x)*0x85EBCA6B + 0xC2B2AE35
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return int64(h & (1<<62 - 1))
}

// Members lists the members of a hitting set in ascending order.
func Members(inA []bool) []int32 {
	var out []int32
	for v, in := range inA {
		if in {
			out = append(out, int32(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
