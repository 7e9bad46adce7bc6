package hopset

import (
	"reflect"
	"testing"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/wire"
)

// testArtifact builds a small synthetic artifact with the structural
// invariants of a real one (sorted rows, pivots in range).
func testArtifact() *Artifact {
	return &Artifact{
		N:    4,
		Beta: 6,
		K:    3,
		InA1: []bool{true, false, false, true},
		Rows: []matrix.Row[semiring.WH]{
			{{Col: 1, Val: semiring.WH{W: 2, H: 1}}, {Col: 3, Val: semiring.WH{W: 7, H: 1}}},
			{{Col: 0, Val: semiring.WH{W: 2, H: 1}}},
			nil,
			{{Col: 0, Val: semiring.WH{W: 7, H: 1}}},
		},
		PV:  []int32{0, 0, 3, 3},
		DPV: []semiring.WH{{}, {W: 2, H: 1}, {W: 5, H: 2}, {}},
	}
}

func TestArtifactCodecRoundTrip(t *testing.T) {
	a := testArtifact()
	var w wire.Writer
	EncodeArtifact(&w, a)
	r := wire.NewReader(w.Bytes())
	got, err := DecodeArtifact(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Expect(0)
	if err := r.Err(); err != nil {
		t.Fatalf("leftover bytes: %v", err)
	}
	// Decode materializes empty rows as empty (non-nil) slices; normalize
	// before comparing.
	if len(got.Rows[2]) != 0 {
		t.Fatalf("row 2: got %d entries, want 0", len(got.Rows[2]))
	}
	got.Rows[2] = nil
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, a)
	}

	// Determinism: encoding the same artifact twice gives the same bytes.
	var w2 wire.Writer
	EncodeArtifact(&w2, a)
	if !reflect.DeepEqual(w.Bytes(), w2.Bytes()) {
		t.Error("encoding is not deterministic")
	}
}

func TestParamsCodecRoundTrip(t *testing.T) {
	for _, p := range []Params{Paper(0.5), Practical(0.25), {Eps: 0.1, K: 9, Levels: 4, BetaFactor: 3.5, HopCap: 12}} {
		var w wire.Writer
		EncodeParams(&w, p)
		r := wire.NewReader(w.Bytes())
		got, err := DecodeParams(r)
		if err != nil {
			t.Fatal(err)
		}
		// Params are used as map keys; the round-trip must be ==, not
		// just DeepEqual.
		if got != p {
			t.Errorf("params round-trip: got %+v, want %+v", got, p)
		}
	}
}

func TestDecodeArtifactRejectsMalformed(t *testing.T) {
	a := testArtifact()
	var w wire.Writer
	EncodeArtifact(&w, a)
	valid := w.Bytes()

	// Truncation at every prefix must error, never panic.
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeArtifact(wire.NewReader(valid[:i])); err == nil {
			t.Fatalf("truncation at %d: no error", i)
		}
	}

	// Structural corruption (a pivot outside A_1 among it: every builder
	// picks p(v) from A_1), and weights no builder writes (a negative or
	// infinite edge, a hop count other than 1, a negative pivot distance)
	// that a loaded engine would otherwise serve.
	for _, tc := range []struct {
		name   string
		poison func(a *Artifact)
	}{
		{"out-of-range pivot", func(a *Artifact) { a.PV[1] = 99 }},
		{"pivot outside A_1", func(a *Artifact) { a.PV[1] = 2 }},
		{"unsorted row", func(a *Artifact) {
			a.Rows[0] = matrix.Row[semiring.WH]{{Col: 3, Val: semiring.WH{W: 1, H: 1}}, {Col: 1, Val: semiring.WH{W: 1, H: 1}}}
		}},
		{"negative edge weight", func(a *Artifact) { a.Rows[0][0].Val = semiring.WH{W: -1000, H: -7} }},
		{"negative weight, one hop", func(a *Artifact) { a.Rows[1][0].Val.W = -1 }},
		{"infinite edge weight", func(a *Artifact) { a.Rows[3][0].Val.W = semiring.Inf }},
		{"zero hops", func(a *Artifact) { a.Rows[0][1].Val.H = 0 }},
		{"two hops", func(a *Artifact) { a.Rows[0][1].Val.H = 2 }},
		{"negative pivot weight", func(a *Artifact) { a.DPV[2].W = -5 }},
		{"negative pivot hops", func(a *Artifact) { a.DPV[1].H = -1 }},
	} {
		bad := testArtifact()
		tc.poison(bad)
		w = wire.Writer{}
		EncodeArtifact(&w, bad)
		if _, err := DecodeArtifact(wire.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
