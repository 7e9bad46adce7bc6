package matmul

import (
	"context"
	"testing"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// TestLemma9Balance asserts the subtask-size guarantees (1) and (2) of
// Lemma 9 on several inputs: every subcube's S and T submatrices stay
// within the O(ρS·a + n) / O(ρT·b + n) bounds.
func TestLemma9Balance(t *testing.T) {
	sr := semiring.NewMinPlus(1 << 30)
	cases := []struct {
		n, perRowS, perRowT int
		seed                int64
	}{
		{32, 5, 5, 85},
		{48, 2, 9, 86},
		{64, 8, 8, 87},
		{33, 1, 6, 88},
	}
	for _, tc := range cases {
		s := randMat(tc.n, tc.perRowS, tc.seed)
		tm := randMat(tc.n, tc.perRowT, tc.seed+1)
		bal, err := measureBalance[int64](sr, s, tm, matrix.SupportDensity[int64](s, tm))
		if err != nil {
			t.Fatal(err)
		}
		if bal.MaxSubS > bal.BoundSubS {
			t.Errorf("n=%d: max S-subtask %d exceeds bound %d (params %+v)",
				tc.n, bal.MaxSubS, bal.BoundSubS, bal.Params)
		}
		if bal.MaxSubT > bal.BoundSubT {
			t.Errorf("n=%d: max T-subtask %d exceeds bound %d (params %+v)",
				tc.n, bal.MaxSubT, bal.BoundSubT, bal.Params)
		}
	}
}

// balance reports the Lemma 9 subtask-size guarantees for the given
// inputs: the largest S-submatrix and T-submatrix over all subcubes, and
// the corresponding O(ρS·a + n), O(ρT·b + n) bounds (up to the Lemma 7
// factor 2).
type balance struct {
	MaxSubS, MaxSubT     int
	BoundSubS, BoundSubT int
	Params               Params
}

// measureBalance runs the cube partitioning and measures the subtask sizes.
func measureBalance[E any](sr semiring.Semiring[E], s, t *matrix.Mat[E], rhoHat int) (balance, error) {
	n := s.N
	var bal balance
	_, err := cc.Run(context.Background(), cc.Config{N: n}, func(nd *cc.Node) error {
		cs := newCube(nd, sr, s.Rows[nd.ID], t.Rows[nd.ID], rhoHat)
		if nd.ID != 0 {
			return nil
		}
		bal.Params = cs.par
		for sid := 0; sid < cs.nsub; sid++ {
			i, j, k := cs.decode(sid)
			nzS, nzT := 0, 0
			for u := 0; u < cs.n; u++ {
				if int(cs.sAssign[u]) == i {
					for _, e := range s.Rows[u] {
						if cs.findPart(i, j, int(e.Col)) == k {
							nzS++
						}
					}
				}
			}
			for w := 0; w < cs.n; w++ {
				if cs.findPart(i, j, w) == k {
					for _, e := range t.Rows[w] {
						if int(cs.tAssign[e.Col]) == j {
							nzT++
						}
					}
				}
			}
			if nzS > bal.MaxSubS {
				bal.MaxSubS = nzS
			}
			if nzT > bal.MaxSubT {
				bal.MaxSubT = nzT
			}
		}
		// Lemma 9 bounds with the Lemma 5 (+w) and Lemma 7 (×2) slack.
		bal.BoundSubS = 2 * (cs.rhoS*cs.par.A + cs.n)
		bal.BoundSubT = 2 * (cs.rhoT*cs.par.B + cs.n)
		return nil
	})
	return bal, err
}
