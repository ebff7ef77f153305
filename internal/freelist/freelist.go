// Package freelist recycles scratch memory across calls on bounded
// lists that a garbage collection does not empty.
//
// A sync.Pool drops its contents at every collection, so whether a
// collection ran during a batch decided whether the batch re-allocated
// its scratch: a batch's allocated bytes split into modes by the
// collector's timing. A List keeps what it is handed until the next
// Get, at most a fixed number of values per GOMAXPROCS and none larger
// than MaxBytes, so the memory it retains stays bounded by the worker
// count.
package freelist

import (
	"runtime"
	"sync"
	"unsafe"
)

// MaxBytes is the most memory a list keeps in one value: 16 MB. A
// larger value is left to the collector, so no list pins a huge one.
const MaxBytes = 16 << 20

// List is a bounded LIFO of recycled values; it keeps at most one per
// GOMAXPROCS. The zero List is empty and safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	kept []T
}

// Get pops the value put last, if any.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := len(l.kept); k > 0 {
		x, ok = l.kept[k-1], true
		var zero T
		l.kept[k-1] = zero
		l.kept = l.kept[:k-1]
	}
	return x, ok
}

// Put keeps x, which holds size bytes, for a later Get. When x holds
// more than MaxBytes or the list is full, x is left to the collector.
func (l *List[T]) Put(x T, size int) {
	if size <= MaxBytes {
		l.put(x, 1)
	}
}

// put keeps x unless the list holds perProc values per GOMAXPROCS.
func (l *List[T]) put(x T, perProc int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.kept) < perProc*runtime.GOMAXPROCS(0) {
		l.kept = append(l.kept, x)
	}
}

// Len returns how many values the list keeps.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.kept)
}

// Slabs recycles slices of E on a List. Slabs of more than MaxBytes go
// through a sync.Pool instead, which lets an idle one go, so the list
// never pins a huge slab.
type Slabs[E any] struct {
	// PerProc is how many slabs the list keeps per GOMAXPROCS; 0 means
	// one.
	PerProc int

	list List[[]E]
	big  sync.Pool
}

// small reports whether a slab of n elements fits the list.
func (s *Slabs[E]) small(n int) bool {
	var e E
	return uintptr(n)*unsafe.Sizeof(e) <= MaxBytes
}

// Get returns a slab of n elements with stale contents.
func (s *Slabs[E]) Get(n int) []E {
	var slab []E
	if s.small(n) {
		slab, _ = s.list.Get()
	} else if p, ok := s.big.Get().(*[]E); ok {
		slab = *p
	}
	if cap(slab) < n {
		return make([]E, n)
	}
	return slab[:n]
}

// Put hands a slab back once nothing reads it. A nil slab is dropped.
func (s *Slabs[E]) Put(slab []E) {
	switch {
	case cap(slab) == 0:
		return
	case !s.small(cap(slab)):
		s.big.Put(&slab)
	default:
		s.list.put(slab, max(1, s.PerProc))
	}
}

// Len returns how many slabs the list keeps.
func (s *Slabs[E]) Len() int { return s.list.Len() }
