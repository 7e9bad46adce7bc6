package hopset

import (
	"fmt"

	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/wire"
)

// This file is the binary codec for preprocessing artifacts, used by the
// snapshot format (internal/snapshot) to persist a warm engine. The
// encoding is deterministic - the same artifact always produces the same
// bytes - which is what makes snapshot round-trips byte-identical.

// EncodeParams appends the binary encoding of p to w.
func EncodeParams(w *wire.Writer, p Params) {
	w.Float64(p.Eps)
	w.Int(p.K)
	w.Int(p.Levels)
	w.Float64(p.BetaFactor)
	w.Int(p.HopCap)
}

// DecodeParams reads a Params encoded by EncodeParams. Float fields
// round-trip bit-exactly, so decoded params are map-key-equal to the
// originals.
func DecodeParams(r *wire.Reader) (Params, error) {
	p := Params{
		Eps:        r.Float64(),
		K:          r.Int(),
		Levels:     r.Int(),
		BetaFactor: r.Float64(),
		HopCap:     r.Int(),
	}
	return p, r.Err()
}

// EncodeArtifact appends the binary encoding of a to w: the shared scalar
// fields, the A_1 bitset, and the per-node rows, pivots and pivot
// distances.
func EncodeArtifact(w *wire.Writer, a *Artifact) {
	w.Int(a.N)
	w.Int(a.Beta)
	w.Int(a.K)
	// InA1 as a packed bitset (its length always equals N).
	bits := make([]byte, (a.N+7)/8)
	for v, in := range a.InA1 {
		if in {
			bits[v/8] |= 1 << (v % 8)
		}
	}
	for _, b := range bits {
		w.Byte(b)
	}
	for _, row := range a.Rows {
		w.Uvarint(uint64(len(row)))
		prev := int32(-1)
		for _, e := range row {
			// Columns are sorted strictly ascending; delta-encode them.
			w.Uvarint(uint64(e.Col - prev))
			w.Varint(e.Val.W)
			w.Varint(e.Val.H)
			prev = e.Col
		}
	}
	for _, pv := range a.PV {
		w.Varint(int64(pv))
	}
	for _, d := range a.DPV {
		w.Varint(d.W)
		w.Varint(d.H)
	}
}

// DecodeArtifact reads an Artifact encoded by EncodeArtifact, validating
// structure as it goes: row columns must be strictly ascending and in
// range, every row entry must be a hopset edge (weight in [0, Inf), one
// hop), pivots must be in [-1, n), and pivot distances must not be
// negative. Malformed input returns an error, never a panic.
func DecodeArtifact(r *wire.Reader) (*Artifact, error) {
	a := &Artifact{N: r.Int(), Beta: r.Int(), K: r.Int()}
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Every node contributes at least 4 bytes downstream (bitset bit, one
	// row-length byte, one PV byte, two DPV bytes), so any N beyond a
	// quarter of the remaining input is malformed; reject it before
	// allocating the per-node slices.
	if a.N < 1 || a.N > r.Remaining()/4 {
		return nil, fmt.Errorf("hopset: artifact node count %d out of range", a.N)
	}
	if a.Beta < 0 || a.K < 0 {
		return nil, fmt.Errorf("hopset: negative artifact scalars (beta=%d, k=%d)", a.Beta, a.K)
	}
	a.InA1 = make([]bool, a.N)
	for v := 0; v < a.N; v += 8 {
		b := r.Byte()
		for j := 0; j < 8 && v+j < a.N; j++ {
			a.InA1[v+j] = b&(1<<j) != 0
		}
	}
	a.Rows = make([]matrix.Row[semiring.WH], a.N)
	for v := 0; v < a.N && r.Err() == nil; v++ {
		cnt := r.Count(3) // each entry is at least 3 varint bytes
		row := make(matrix.Row[semiring.WH], 0, cnt)
		prev := int32(-1)
		for i := 0; i < cnt; i++ {
			delta := r.Uvarint()
			wgt := r.Varint()
			hop := r.Varint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if delta == 0 || delta > uint64(a.N) {
				return nil, fmt.Errorf("hopset: row %d column delta %d not strictly ascending in [0, %d)", v, delta, a.N)
			}
			col := int64(prev) + int64(delta)
			if col >= int64(a.N) {
				return nil, fmt.Errorf("hopset: row %d column %d out of range [0, %d)", v, col, a.N)
			}
			if wgt < 0 || wgt >= semiring.Inf || hop != 1 {
				return nil, fmt.Errorf("hopset: row %d column %d entry (w=%d, h=%d) is not a one-hop edge of weight in [0, Inf)", v, col, wgt, hop)
			}
			prev = int32(col)
			row = append(row, matrix.Entry[semiring.WH]{Col: prev, Val: semiring.WH{W: wgt, H: hop}})
		}
		a.Rows[v] = row
	}
	a.PV = make([]int32, a.N)
	for v := range a.PV {
		pv := r.Varint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if pv < -1 || pv >= int64(a.N) {
			return nil, fmt.Errorf("hopset: pivot p(%d)=%d out of range", v, pv)
		}
		if pv >= 0 && !a.InA1[pv] {
			return nil, fmt.Errorf("hopset: pivot p(%d)=%d is not in A_1", v, pv)
		}
		a.PV[v] = int32(pv)
	}
	a.DPV = make([]semiring.WH, a.N)
	for v := range a.DPV {
		a.DPV[v] = semiring.WH{W: r.Varint(), H: r.Varint()}
		if r.Err() == nil && (a.DPV[v].W < 0 || a.DPV[v].H < 0) {
			return nil, fmt.Errorf("hopset: pivot distance d(%d, p(%d))=%+v negative", v, v, a.DPV[v])
		}
	}
	return a, r.Err()
}
