package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RowBlock is the number of consecutive rows a RunRows worker claims at a
// time: large enough that the claim counter is cold, small enough that
// the rows of one block (plus the scratch accumulator) stay
// cache-resident and the tail imbalance is negligible.
const RowBlock = 32

// passWorkers resolves a worker-count knob: <= 0 means GOMAXPROCS,
// and the count is capped so no worker would sit idle on a pass of n
// rows claimed block at a time.
func passWorkers(workers, n, block int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if blocks := (n + block - 1) / block; workers > blocks {
		workers = blocks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// passes counts the row passes running in the process, serial ones
// included: each holds at least one core.
var passes atomic.Int32

// RunRows executes a per-row function over rows [0, n), block-partitioned
// across at most workers goroutines. Each row is computed by exactly one
// worker, so any per-row function whose output depends only on its row
// index runs identically at every worker count and at whatever width the
// pass picks under load: the host kernels of internal/matmul, the row
// passes of internal/disttools, internal/hopset and internal/mssp and the
// simulator's collective shards all run on it. A
// pass that starts while r-1 others run takes only its share of the
// cores, GOMAXPROCS/r of them and at least one (DESIGN.md §13, "a pass
// fans out only into idle cores"), so a lone pass fans out fully and
// concurrent queries do not fork onto busy cores. newWorker is called
// once per goroutine the pass starts to allocate its private scratch
// state and returns the row function; with one the loop runs inline with
// no goroutines (the serial engine analogue).
func RunRows(n, workers int, newWorker func() func(row int)) {
	runBlocks(n, RowBlock, workers, newWorker)
}

// RunEach is RunRows for a pass whose every row is a whole search: a
// worker claims one row at a time, so even a pass of a few rows fans out
// across the cores its share allows.
func RunEach(n, workers int, newWorker func() func(row int)) {
	runBlocks(n, 1, workers, newWorker)
}

// runBlocks is RunRows with workers claiming block rows at a time.
func runBlocks(n, block, workers int, newWorker func() func(row int)) {
	r := int(passes.Add(1))
	defer passes.Add(-1)
	w := min(passWorkers(workers, n, block), max(1, runtime.GOMAXPROCS(0)/r))
	if w == 1 {
		fn := newWorker()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < w; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker()
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= n {
					return
				}
				hi := min(lo+block, n)
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
