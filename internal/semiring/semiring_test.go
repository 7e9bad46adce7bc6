package semiring

import (
	"testing"
	"testing/quick"
)

func TestMinPlusAxioms(t *testing.T) {
	s := NewMinPlus(1 << 20)
	clamp := func(x int64) int64 {
		if x < 0 {
			x = -x
		}
		return x % (1 << 20)
	}
	// Associativity, commutativity of Add; distributivity; identities.
	prop := func(ar, br, cr int64) bool {
		a, b, c := clamp(ar), clamp(br), clamp(cr)
		if s.Add(a, s.Add(b, c)) != s.Add(s.Add(a, b), c) {
			return false
		}
		if s.Add(a, b) != s.Add(b, a) {
			return false
		}
		if s.Mul(a, s.Mul(b, c)) != s.Mul(s.Mul(a, b), c) {
			return false
		}
		if s.Mul(a, s.Add(b, c)) != s.Add(s.Mul(a, b), s.Mul(a, c)) {
			return false
		}
		if s.Add(a, s.Zero()) != a || s.Mul(a, s.One()) != a || s.Mul(s.One(), a) != a {
			return false
		}
		if !s.IsZero(s.Mul(a, s.Zero())) || !s.IsZero(s.Mul(s.Zero(), a)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinPlusRankMonotone(t *testing.T) {
	s := NewMinPlus(1000)
	vals := []int64{0, 1, 5, 999, 1000, Inf}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			if (vals[i] < vals[j]) != (s.Rank(vals[i]) < s.Rank(vals[j])) {
				t.Errorf("rank not monotone at (%d, %d)", vals[i], vals[j])
			}
		}
	}
	if s.Rank(Inf) != s.MaxRank() {
		t.Error("Inf must have max rank")
	}
}

func TestMinPlusEncDec(t *testing.T) {
	s := NewMinPlus(1 << 30)
	for _, v := range []int64{0, 1, 17, 1 << 30, Inf} {
		c, d := s.Enc(v)
		if got := s.Dec(c, d); !s.Eq(got, v) {
			t.Errorf("Enc/Dec roundtrip: %d -> %d", v, got)
		}
	}
}

func TestMinPlusSaturation(t *testing.T) {
	s := NewMinPlus(100)
	if !s.IsZero(s.Mul(Inf, 5)) || !s.IsZero(s.Mul(5, Inf)) {
		t.Error("Mul with Inf must saturate")
	}
	if s.Mul(Inf, Inf) < 0 {
		t.Error("saturating Mul overflowed")
	}
}

func TestAugMinPlusLexOrder(t *testing.T) {
	s := NewAugMinPlus(1000, 64)
	cases := []struct {
		a, b WH
		less bool
	}{
		{WH{1, 5}, WH{2, 1}, true},   // weight dominates
		{WH{3, 1}, WH{3, 2}, true},   // hops break weight ties
		{WH{3, 2}, WH{3, 2}, false},  // equal
		{InfWH, WH{1000, 64}, false}, // infinity is last
		{WH{0, 0}, InfWH, true},
	}
	for _, tc := range cases {
		if got := LessWH(tc.a, tc.b); got != tc.less {
			t.Errorf("LessWH(%v, %v)=%v, want %v", tc.a, tc.b, got, tc.less)
		}
		if got := s.Rank(tc.a) < s.Rank(tc.b); got != tc.less {
			t.Errorf("Rank order (%v, %v)=%v, want %v", tc.a, tc.b, got, tc.less)
		}
		if want := s.Add(tc.a, tc.b); tc.less && !s.Eq(want, tc.a) {
			t.Errorf("Add(%v, %v)=%v, want lex-min", tc.a, tc.b, want)
		}
	}
}

// TestAugMinPlusUnrank: Unrank inverts Rank on every finite value whose
// hop count is at most MaxH + 1, at both ends of the weight range.
func TestAugMinPlusUnrank(t *testing.T) {
	s := NewAugMinPlus(1000, 64)
	for _, w := range []int64{0, 1, 7, 999, 1000} {
		for h := int64(0); h <= s.MaxH+1; h++ {
			if e := (WH{W: w, H: h}); s.Unrank(s.Rank(e)) != e {
				t.Fatalf("Unrank(Rank(%v)) = %v", e, s.Unrank(s.Rank(e)))
			}
		}
	}
}

func TestAugMinPlusAxioms(t *testing.T) {
	s := NewAugMinPlus(1<<16, 1<<10)
	mk := func(w, h int64) WH {
		if w < 0 {
			w = -w
		}
		if h < 0 {
			h = -h
		}
		return WH{W: w % (1 << 16), H: h % (1 << 10)}
	}
	prop := func(w1, h1, w2, h2, w3, h3 int64) bool {
		a, b, c := mk(w1, h1), mk(w2, h2), mk(w3, h3)
		if s.Add(a, s.Add(b, c)) != s.Add(s.Add(a, b), c) {
			return false
		}
		if s.Add(a, b) != s.Add(b, a) {
			return false
		}
		if s.Add(a, a) != a { // idempotent addition (§3.1)
			return false
		}
		if s.Mul(a, s.Mul(b, c)) != s.Mul(s.Mul(a, b), c) {
			return false
		}
		if s.Mul(a, s.Add(b, c)) != s.Add(s.Mul(a, b), s.Mul(a, c)) {
			return false
		}
		if s.Add(a, s.Zero()) != a || s.Mul(a, s.One()) != a {
			return false
		}
		return s.IsZero(s.Mul(a, s.Zero()))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAugMinPlusEncDec(t *testing.T) {
	s := NewAugMinPlus(1<<20, 1<<12)
	for _, v := range []WH{{0, 0}, {5, 3}, {1 << 20, 1 << 12}, InfWH} {
		c, d := s.Enc(v)
		if got := s.Dec(c, d); !s.Eq(got, v) {
			t.Errorf("Enc/Dec roundtrip: %v -> %v", v, got)
		}
	}
}

func TestAugMinPlusRankDistinguishesHops(t *testing.T) {
	s := NewAugMinPlus(100, 10)
	a, b := WH{7, 2}, WH{7, 3}
	if s.Rank(a) >= s.Rank(b) {
		t.Error("rank must separate equal weights by hops")
	}
	if s.Rank(WH{7, 10}) >= s.Rank(WH{8, 0}) {
		t.Error("weight must dominate hops in rank")
	}
}

func TestBooleanSemiring(t *testing.T) {
	s := Boolean{}
	if s.Add(true, false) != true || s.Mul(true, false) != false {
		t.Error("boolean ops wrong")
	}
	if !s.IsZero(s.Zero()) || s.IsZero(s.One()) {
		t.Error("identities wrong")
	}
	for _, v := range []bool{true, false} {
		c, d := s.Enc(v)
		if s.Dec(c, d) != v {
			t.Error("Enc/Dec roundtrip failed")
		}
	}
}

func TestArithRing(t *testing.T) {
	s := Arith{}
	if s.Mul(3, 4) != 12 || s.Add(3, 4) != 7 {
		t.Error("arith ops wrong")
	}
	if s.Add(5, -5) != 0 || !s.IsZero(0) {
		t.Error("cancellation must produce zero")
	}
}

func TestNewValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("minplus zero", func() { NewMinPlus(0) })
	mustPanic("minplus inf", func() { NewMinPlus(Inf) })
	mustPanic("aug zero", func() { NewAugMinPlus(0, 5) })
	mustPanic("aug overflow", func() { NewAugMinPlus(Inf-1, Inf-1) })
}
