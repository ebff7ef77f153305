// Package fanout is the one in-memory worker pool: every fan-out of the
// engine (the counting executor's slots, the region kernels' sweeps and
// DP partitions, the 2-D (pair, kind) tasks and the per-driver 1-D
// extraction) runs on these two functions.
//
// Both run fn inline on the calling goroutine when there is one worker
// (or at most one index), so a serial caller pays no goroutine and no
// channel and executes exactly the loop it would have written by hand.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run calls fn(w) for every worker w in [0, workers) and returns once
// all calls have returned. Worker 0 runs on the calling goroutine, the
// rest on their own; workers <= 1 is one inline fn(0) call.
func Run(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// Each calls fn(w, i) once for every index i in [0, n) on at most
// workers workers and returns once all calls have returned. Workers
// claim indices in increasing order, one at a time, so the indices one
// worker sees increase and a worker may carry state (scratch, a running
// best) from one index to the next in its slot w. With one worker or
// n <= 1 the indices run inline, in order, as worker 0.
func Each(workers, n int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	Run(workers, func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	})
}
