package disttools

import (
	"math/bits"
	"sync"
)

// Scratch recycles flat buffers that are needed only for a while
// (DESIGN.md §13, "who owns which buffer"): the planes a restricted
// detection sweeps and, above the engine seam, the backing of a lent
// neighbor-list answer. Class c holds slices whose capacity lies in
// [2^c, 2^(c+1)); Get allocates exactly n on a miss, hands out a pooled
// buffer with less than twice the capacity asked for on a hit, and drops a
// pooled one too small for the request rather than putting it back, which
// moves a class towards the sizes actually asked for. The classes are sync.Pools: a collection
// empties them, so nothing here counts against the live heap. The zero
// value is ready to use.
type Scratch[T any] struct {
	classes [bits.UintSize]sync.Pool
}

// Get returns a buffer of length n whose elements are arbitrary: the
// caller writes every one before reading it.
func (s *Scratch[T]) Get(n int) []T {
	if n == 0 {
		return nil
	}
	if b, _ := s.classes[bits.Len(uint(n))-1].Get().(*[]T); b != nil && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]T, n)
}

// Put hands b back. b, and every slice of it, is dead afterwards.
func (s *Scratch[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	s.classes[bits.Len(uint(cap(b)))-1].Put(&b)
}

var (
	planes  Scratch[int64] // n×|S| weight planes
	indices Scratch[int32] // n-sized column indices
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
