package disttools

import "github.com/congestedclique/ccsp/internal/pool"

var (
	planes  pool.Scratch[int64] // n×|S| weight planes
	indices pool.Scratch[int32] // n-sized column indices
)

// TakePlane returns a plane of n cells from the pool detection planes
// share, allocated exactly when none is there. Its cells are arbitrary:
// the caller writes every one before reading it. APSP's estimate table is
// the one taker outside the kernel (DESIGN.md §13, "who owns which
// buffer").
func TakePlane(n int) []int64 { return planes.Get(n) }

// ReleasePlane is Panel.Release for a caller that holds a plane without
// the panel: the engine's one-cell distance read once it has the cell, a
// lent MSSP plane or APSP table once its answer is written. The plane, and
// every slice of it, is dead afterwards.
func ReleasePlane(w []int64) { planes.Put(w) }
