package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestKernelPassWidth: a row pass starts GOMAXPROCS/r goroutines while r
// passes run, at least one and never more than its worker count. At each
// GOMAXPROCS a lone pass at workers 4 starts min(4, P) of them; an outer
// pass at workers 2 starts min(2, P), and a pass at workers 4 run from one
// of its rows starts min(4, max(1, P/2)). Once both end no pass is counted.
func TestKernelPassWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 8 * RowBlock
	started := func(workers int, row func(int)) int {
		var c atomic.Int32
		RunRows(n, workers, func() func(int) {
			c.Add(1)
			return row
		})
		return int(c.Load())
	}
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		if got, want := started(4, func(int) {}), min(4, procs); got != want {
			t.Errorf("GOMAXPROCS=%d: a lone pass at workers 4 started %d goroutines, want %d", procs, got, want)
		}
		inner := 0
		outer := started(2, func(i int) {
			if i == 0 {
				inner = started(4, func(int) {})
			}
		})
		if want := min(2, procs); outer != want {
			t.Errorf("GOMAXPROCS=%d: the outer pass at workers 2 started %d goroutines, want %d", procs, outer, want)
		}
		if want := min(4, max(1, procs/2)); inner != want {
			t.Errorf("GOMAXPROCS=%d: a pass at workers 4 beside another started %d goroutines, want %d", procs, inner, want)
		}
		if r := passes.Load(); r != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d passes still counted after both ended", procs, r)
		}
	}
}
