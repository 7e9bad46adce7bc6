// Package pool holds what every layer shares for CPU and memory. RunRows
// and RunEach are the one CPU-bound parallel-for: the direct kernels and
// searches and the simulator's collective shards all fan out on them, and
// a pass beside others takes only its share of the cores (DESIGN.md §5,
// §13). Scratch is the size-classed buffer pool every
// layer that recycles a large flat buffer shares: the detection planes of
// disttools, the engine's lent neighbor backings, row and list headers and
// source membership vectors, the client's large response bodies and the
// daemon's encode buffers (DESIGN.md §13, "who owns which buffer").
package pool

import (
	"math/bits"
	"sync"
)

// Scratch recycles flat buffers that are needed only for a while. Class c
// holds slices whose capacity lies in [2^c, 2^(c+1)); Get allocates exactly
// n on a miss, hands out a pooled buffer with less than twice the capacity
// asked for on a hit, and drops a pooled one too small for the request
// rather than putting it back, which moves a class towards the sizes
// actually asked for. The classes are sync.Pools: a collection empties
// them, so nothing here counts against the live heap. The zero value is
// ready to use.
type Scratch[T any] struct {
	classes [bits.UintSize]sync.Pool
	// boxes recycles the *[]T a class stores its slices in: boxing a
	// fresh &b on every Put would allocate one, so a warm Get/Put pair
	// allocates nothing.
	boxes sync.Pool
}

// Get returns a buffer of length n whose elements are arbitrary: the
// caller writes every one before reading it.
func (s *Scratch[T]) Get(n int) []T {
	if n == 0 {
		return nil
	}
	if box, _ := s.classes[bits.Len(uint(n))-1].Get().(*[]T); box != nil {
		b := *box
		*box = nil
		s.boxes.Put(box)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]T, n)
}

// Put hands b back. b, and every slice of it, is dead afterwards.
func (s *Scratch[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	box, _ := s.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = b
	s.classes[bits.Len(uint(cap(b)))-1].Put(box)
}

// Ceiling is the largest length of n's class, 2^(⌊log₂ n⌋+1) − 1: a caller
// whose sizes wander inside a class asks for this instead of n, so every
// buffer the class holds fits every later request.
func Ceiling(n int) int {
	if n <= 0 {
		return 0
	}
	return 1<<bits.Len(uint(n)) - 1
}
