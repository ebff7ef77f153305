package freelist

import (
	"runtime"
	"testing"
)

// TestListBounds pins List's two bounds: it keeps one value per
// GOMAXPROCS, last in first out, through two collections, and leaves a
// value of more than MaxBytes to the collector.
func TestListBounds(t *testing.T) {
	var l List[*int]
	procs := runtime.GOMAXPROCS(0)
	vals := make([]int, procs+2)
	for k := range vals {
		l.Put(&vals[k], MaxBytes)
	}
	runtime.GC()
	runtime.GC()
	if l.Len() != procs {
		t.Fatalf("kept %d values, want %d", l.Len(), procs)
	}
	if x, ok := l.Get(); !ok || x != &vals[procs-1] {
		t.Fatalf("Get did not return the last value kept")
	}
	var big List[*int]
	big.Put(&vals[0], MaxBytes+1)
	if big.Len() != 0 {
		t.Fatalf("a value over MaxBytes was kept")
	}
	if _, ok := big.Get(); ok {
		t.Fatalf("an empty list returned a value")
	}
}
