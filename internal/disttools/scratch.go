package disttools

import (
	"math/bits"
	"sync"
)

// scratch recycles the flat buffers a restricted detection needs only
// while it runs (DESIGN.md §13, "who owns which buffer"). Class c holds
// slices whose capacity lies in [2^c, 2^(c+1)); get allocates exactly n
// on a miss, so a buffer that leaves as an answer carries no slack, and a
// pooled one too small for the request is dropped rather than put back,
// which moves a class towards the sizes actually asked for. The classes
// are sync.Pools: a collection empties them, so nothing here counts
// against the live heap.
type scratch[T any] struct {
	classes [bits.UintSize]sync.Pool
}

func (s *scratch[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	if b, _ := s.classes[bits.Len(uint(n))-1].Get().(*[]T); b != nil && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]T, n)
}

func (s *scratch[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	s.classes[bits.Len(uint(cap(b)))-1].Put(&b)
}

var (
	planes  scratch[int64] // n×|S| weight planes
	indices scratch[int32] // n-sized column indices
)

// TakePlane returns a plane of n cells from the pool detection planes
// share, allocated exactly when none is there. Its cells are arbitrary:
// the caller writes every one before reading it. APSP's estimate table is
// the one taker outside the kernel (DESIGN.md §13, "who owns which
// buffer").
func TakePlane(n int) []int64 { return planes.get(n) }

// ReleasePlane is Panel.Release for a caller that holds a plane without
// the panel: the engine's one-cell distance read once it has the cell, a
// lent MSSP plane or APSP table once its answer is written. The plane, and
// every slice of it, is dead afterwards.
func ReleasePlane(w []int64) { planes.put(w) }
