package pool

import "testing"

// TestScratchClasses: a miss allocates exactly what was asked; a put buffer
// serves a later request of its class that it can hold, and never one it
// cannot; a request of Ceiling(n) is held by every buffer its class keeps.
func TestScratchClasses(t *testing.T) {
	var s Scratch[byte]
	if b := s.Get(100); len(b) != 100 || cap(b) != 100 {
		t.Errorf("miss: len %d cap %d, want 100 100", len(b), cap(b))
	}
	for _, tc := range []struct{ n, ceiling int }{{0, 0}, {1, 1}, {2, 3}, {3, 3}, {64, 127}, {100, 127}, {127, 127}, {128, 255}} {
		if got := Ceiling(tc.n); got != tc.ceiling {
			t.Errorf("Ceiling(%d) = %d, want %d", tc.n, got, tc.ceiling)
		}
	}
	// A few tries: sync.Pool drops a share of its puts under -race.
	for try := 0; try < 10; try++ {
		b := s.Get(Ceiling(70))
		b[0] = 7
		s.Put(b)
		if c := s.Get(Ceiling(100)); cap(c) == Ceiling(70) && c[0] == 7 {
			return
		}
	}
	t.Error("a put buffer of the class's ceiling never served a later request of that class")
}

// TestScratchWarmPairAllocatesNothing: once a class and the boxes hold a
// buffer, a Get/Put pair allocates no object - neither a buffer nor the
// *[]T a class stores it in. Boxing &b afresh on every Put (staticcheck's
// SA6002) reads 1.
func TestScratchWarmPairAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: the pair is not reliably warm")
	}
	var s Scratch[int64]
	s.Put(s.Get(100))
	if got := testing.AllocsPerRun(100, func() { s.Put(s.Get(100)) }); got != 0 {
		t.Errorf("a warm Get/Put pair allocates %v objects, want 0", got)
	}
}
