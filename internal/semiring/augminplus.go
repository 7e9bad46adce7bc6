package semiring

import "fmt"

// WH is an element of the augmented min-plus semiring (§3.1): a path weight
// W together with its hop count H. The total order is lexicographic on
// (W, H), which is what gives the hop-consistency property of Lemma 17.
type WH struct {
	W int64
	H int64
}

// InfWH is the additive identity (∞, ∞) of the augmented semiring.
var InfWH = WH{W: Inf, H: Inf}

// LessWH reports whether a precedes b in the lexicographic order ≺.
func LessWH(a, b WH) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	return a.H < b.H
}

// AugMinPlus is the augmented min-plus semiring of §3.1: elements are (w, t)
// pairs, addition is lexicographic min, multiplication is coordinate-wise
// addition. MaxW bounds finite weights and MaxH bounds hop counts; both are
// O(n^c), keeping elements within O(log n) bits and ranks within int64.
type AugMinPlus struct {
	// MaxW bounds finite weights that can appear during a product.
	MaxW int64
	// MaxH bounds finite hop counts (at most n).
	MaxH int64
}

// NewAugMinPlus returns the augmented min-plus semiring with the given
// bounds. It panics if the rank encoding would overflow int64, which cannot
// happen for weights ≤ n^c with small c and hops ≤ n at practical n.
func NewAugMinPlus(maxW, maxH int64) AugMinPlus {
	if maxW < 1 || maxH < 1 {
		panic(fmt.Sprintf("semiring: invalid bounds (%d, %d)", maxW, maxH))
	}
	if maxW+1 >= Inf/(maxH+2) {
		panic(fmt.Sprintf("semiring: rank overflow for bounds (%d, %d)", maxW, maxH))
	}
	return AugMinPlus{MaxW: maxW, MaxH: maxH}
}

var _ Ordered[WH] = AugMinPlus{}

// Zero returns (∞, ∞).
func (AugMinPlus) Zero() WH { return InfWH }

// One returns (0, 0).
func (AugMinPlus) One() WH { return WH{} }

// Add returns the lexicographic minimum of a and b.
func (AugMinPlus) Add(a, b WH) WH {
	if LessWH(a, b) {
		return a
	}
	return b
}

// Mul returns (a.W+b.W, a.H+b.H), saturating at (∞, ∞).
func (s AugMinPlus) Mul(a, b WH) WH {
	if s.IsZero(a) || s.IsZero(b) {
		return InfWH
	}
	return WH{W: a.W + b.W, H: a.H + b.H}
}

// IsZero reports whether e is (∞, ∞).
func (AugMinPlus) IsZero(e WH) bool { return e.W >= Inf }

// Eq reports element equality.
func (s AugMinPlus) Eq(a, b WH) bool {
	if s.IsZero(a) && s.IsZero(b) {
		return true
	}
	return a == b
}

// Enc encodes e into message words.
func (AugMinPlus) Enc(e WH) (int64, int64) { return e.W, e.H }

// Dec inverts Enc.
func (AugMinPlus) Dec(c, d int64) WH { return WH{W: c, H: d} }

// Rank embeds the lexicographic order: Rank(w, t) = w·(MaxH+2) + t, with
// (∞, ∞) ranking last.
func (s AugMinPlus) Rank(e WH) int64 {
	if s.IsZero(e) {
		return s.MaxRank()
	}
	h := e.H
	if h > s.MaxH {
		h = s.MaxH + 1
	}
	return e.W*(s.MaxH+2) + h
}

// Unrank inverts Rank on the finite values whose hop count is at most
// MaxH + 1: it is the (W, H) of rank r. A k-nearest search keeps ranks
// and decodes them with it, its hop counts staying below n <= MaxH + 2.
func (s AugMinPlus) Unrank(r int64) WH {
	m := s.MaxH + 2
	w := r / m
	return WH{W: w, H: r - w*m}
}

// MaxRank is the rank of (∞, ∞).
func (s AugMinPlus) MaxRank() int64 { return (s.MaxW + 1) * (s.MaxH + 2) }
