package fanout

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// goroutineID returns the calling goroutine's id, parsed from the
// "goroutine N [" header of its stack trace.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	return string(buf[:bytes.IndexByte(buf, ' ')])
}

// TestRunCallsEveryWorkerOnce pins Run: each worker id runs once, and
// worker 0 runs on the calling goroutine.
func TestRunCallsEveryWorkerOnce(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
		calls := make([]int, max(1, workers))
		Run(workers, func(w int) {
			calls[w]++
			if w == 0 && goroutineID() != caller {
				t.Errorf("workers=%d: worker 0 left the calling goroutine", workers)
			}
		})
		for w, n := range calls {
			if n != 1 {
				t.Errorf("workers=%d: worker %d ran %d times", workers, w, n)
			}
		}
	}
}

// TestEachClaimsInIncreasingOrder pins Each's contract: every index runs
// exactly once, worker ids stay below the worker count, and the indices
// one worker sees increase — the property callers carrying a running
// best across indices rely on.
func TestEachClaimsInIncreasingOrder(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 0}, {4, 0}, {4, 1}, {1, 50}, {2, 50}, {3, 7}, {8, 3}, {16, 200},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		last := map[int]int{}
		Each(tc.workers, tc.n, func(w, i int) {
			mu.Lock()
			defer mu.Unlock()
			if w < 0 || w >= max(1, min(tc.workers, tc.n)) {
				t.Errorf("workers=%d n=%d: worker id %d", tc.workers, tc.n, w)
			}
			if prev, ok := last[w]; ok && i <= prev {
				t.Errorf("workers=%d n=%d: worker %d claimed %d after %d", tc.workers, tc.n, w, i, prev)
			}
			last[w] = i
			seen[i]++
		})
		for i, c := range seen {
			if c != 1 {
				t.Errorf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, c)
			}
		}
	}
}

// TestEachOneWorkerRunsInline pins the serial path: one worker (or at
// most one index) runs every index in order as worker 0 on the calling
// goroutine.
func TestEachOneWorkerRunsInline(t *testing.T) {
	caller := goroutineID()
	for _, tc := range []struct{ workers, n int }{{1, 5}, {0, 5}, {8, 1}} {
		var order []int
		Each(tc.workers, tc.n, func(w, i int) {
			if w != 0 {
				t.Errorf("workers=%d n=%d: worker %d", tc.workers, tc.n, w)
			}
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d n=%d: ran on goroutine %s, caller is %s", tc.workers, tc.n, id, caller)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d n=%d: order %v", tc.workers, tc.n, order)
			}
		}
		if len(order) != tc.n {
			t.Errorf("workers=%d n=%d: ran %d indices", tc.workers, tc.n, len(order))
		}
	}
}
