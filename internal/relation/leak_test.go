package relation

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines polls until the goroutine count drops back to at
// most base+slack, failing the test if a scan left goroutines behind.
// Scans run on the caller's goroutine and start none, so the count
// should already be back; the short settle window absorbs goroutines
// the runtime and the testing package start and stop on their own.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s leaked goroutines: %d running, started with %d\n%s",
				what, runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var errConsumer = errors.New("consumer rejected batch")

// TestScanTeardownOnConsumerError drives every backend's scan through
// its consumer-error path — the callback fails mid-stream — and pins
// that (a) the exact error surfaces, un-wrapped and un-replaced, and
// (b) the scan behind it (one v2/v3 block scan per file or per shard
// of a sharded scan) returns without leaving goroutines behind, across
// many repetitions.
func TestScanTeardownOnConsumerError(t *testing.T) {
	fixtures := closeRaceFixtures(t, 3000)
	base := runtime.NumGoroutine()
	for name, rel := range fixtures {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 30; i++ {
				rows := 0
				failAt := 1 + (i*97)%2000 // sweep the fault row across batches
				err := rel.Scan(ColumnSet{Numeric: []int{0, 1}, Bool: []int{2}}, func(b *Batch) error {
					rows += b.Len
					if rows >= failAt {
						return fmt.Errorf("at row %d: %w", rows, errConsumer)
					}
					return nil
				})
				if !errors.Is(err, errConsumer) {
					t.Fatalf("iteration %d: consumer error lost or replaced: %v", i, err)
				}
			}
			settleGoroutines(t, base, name)
		})
	}
}

// TestScanTeardownOnInjectedFault is the storage-side twin: the fault
// harness cuts streams at varying rows THROUGH each backend's scan
// (the wrapper's callback error reaches the block scan as a consumer
// failure), and repeated injected failures must neither leave
// goroutines behind nor corrupt later scans.
func TestScanTeardownOnInjectedFault(t *testing.T) {
	fixtures := closeRaceFixtures(t, 3000)
	base := runtime.NumGoroutine()
	for name, rel := range fixtures {
		t.Run(name, func(t *testing.T) {
			fr := NewFaultRelation(rel, FaultConfig{FailEvery: 2, FailAfterRows: 1500})
			var clean []float64
			for i := 0; i < 30; i++ {
				var got []float64
				err := fr.Scan(ColumnSet{Numeric: []int{0}}, func(b *Batch) error {
					got = append(got, b.Numeric[0][:b.Len]...)
					return nil
				})
				if (i+1)%2 == 0 {
					if !errors.Is(err, ErrInjected) {
						t.Fatalf("scan %d: want injected fault, got %v", i+1, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("healthy scan %d failed after injected neighbors: %v", i+1, err)
				}
				if clean == nil {
					clean = got
				} else if len(got) != len(clean) {
					t.Fatalf("scan %d: healthy scan length changed after faults: %d vs %d", i+1, len(got), len(clean))
				}
			}
			settleGoroutines(t, base, name)
		})
	}
}

// TestScanEarlyAbortNoLeak pins the mundane variant: callers that stop
// a scan early with a plain error (the every-day form of consumer
// abort) can do so in a tight loop without accumulating goroutines or
// file handles.
func TestScanEarlyAbortNoLeak(t *testing.T) {
	fixtures := closeRaceFixtures(t, 2000)
	base := runtime.NumGoroutine()
	stop := errors.New("stop")
	for name, rel := range fixtures {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				err := rel.Scan(ColumnSet{Numeric: []int{0}}, func(b *Batch) error { return stop })
				if !errors.Is(err, stop) {
					t.Fatalf("early abort error lost: %v", err)
				}
			}
			settleGoroutines(t, base, name)
		})
	}
}
