package relation

import (
	"fmt"
	"sync"
)

// MemoryRelation is a columnar in-memory implementation of Relation.
// Numeric columns are []float64 and Boolean columns are []bool, stored
// per attribute, so scans of a few columns touch only those columns.
//
// Appends may run concurrently with scans: every reader captures the
// row count and column headers under a read lock and then streams
// lock-free. Append only writes at indices at or beyond a previously
// captured length (or reallocates, leaving the captured backing array
// untouched), so an in-flight scan observes exactly the rows that
// existed when it started.
type MemoryRelation struct {
	mu      sync.RWMutex
	schema  Schema
	numRows int
	// colIdx[i] is the position of schema attribute i within its
	// kind-specific column store.
	colIdx  []int
	numeric [][]float64
	boolean [][]bool
}

// NewMemoryRelation creates an empty relation with the given schema.
func NewMemoryRelation(schema Schema) (*MemoryRelation, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	r := &MemoryRelation{schema: schema, colIdx: make([]int, len(schema))}
	for i, a := range schema {
		switch a.Kind {
		case Numeric:
			r.colIdx[i] = len(r.numeric)
			r.numeric = append(r.numeric, nil)
		case Boolean:
			r.colIdx[i] = len(r.boolean)
			r.boolean = append(r.boolean, nil)
		}
	}
	return r, nil
}

// MustNewMemoryRelation is NewMemoryRelation that panics on error, for
// tests and examples with statically known schemas.
func MustNewMemoryRelation(schema Schema) *MemoryRelation {
	r, err := NewMemoryRelation(schema)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema implements Relation.
func (r *MemoryRelation) Schema() Schema { return r.schema }

// NumTuples implements Relation.
func (r *MemoryRelation) NumTuples() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.numRows
}

// snapshot captures the row count and the column slice headers under
// the read lock; the returned headers are safe to read up to the
// captured row count without further locking.
func (r *MemoryRelation) snapshot() (n int, numeric [][]float64, boolean [][]bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.numRows, append([][]float64(nil), r.numeric...), append([][]bool(nil), r.boolean...)
}

// Append adds one tuple. nums and bools must list the tuple's numeric
// and Boolean values in schema order of their respective kinds. Safe
// to call concurrently with scans; the new tuple becomes visible to
// scans that start after Append returns.
func (r *MemoryRelation) Append(nums []float64, bools []bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(nums) != len(r.numeric) {
		return fmt.Errorf("relation: got %d numeric values, schema has %d", len(nums), len(r.numeric))
	}
	if len(bools) != len(r.boolean) {
		return fmt.Errorf("relation: got %d boolean values, schema has %d", len(bools), len(r.boolean))
	}
	for i, v := range nums {
		r.numeric[i] = append(r.numeric[i], v)
	}
	for i, v := range bools {
		r.boolean[i] = append(r.boolean[i], v)
	}
	r.numRows++
	return nil
}

// MustAppend is Append that panics on error.
func (r *MemoryRelation) MustAppend(nums []float64, bools []bool) {
	if err := r.Append(nums, bools); err != nil {
		panic(err)
	}
}

// Grow pre-allocates capacity for n additional tuples.
func (r *MemoryRelation) Grow(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.numeric {
		if cap(r.numeric[i])-len(r.numeric[i]) < n {
			col := make([]float64, len(r.numeric[i]), len(r.numeric[i])+n)
			copy(col, r.numeric[i])
			r.numeric[i] = col
		}
	}
	for i := range r.boolean {
		if cap(r.boolean[i])-len(r.boolean[i]) < n {
			col := make([]bool, len(r.boolean[i]), len(r.boolean[i])+n)
			copy(col, r.boolean[i])
			r.boolean[i] = col
		}
	}
}

// NumericColumn returns the full column for the numeric attribute at
// schema position i. The returned slice is the backing store: callers
// must not modify it, and its length reflects the rows present when
// NumericColumn was called.
func (r *MemoryRelation) NumericColumn(i int) ([]float64, error) {
	if i < 0 || i >= len(r.schema) || r.schema[i].Kind != Numeric {
		return nil, fmt.Errorf("relation: attribute %d is not a numeric column", i)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.numeric[r.colIdx[i]], nil
}

// BoolColumn returns the full column for the Boolean attribute at
// schema position i. The returned slice is the backing store: callers
// must not modify it, and its length reflects the rows present when
// BoolColumn was called.
func (r *MemoryRelation) BoolColumn(i int) ([]bool, error) {
	if i < 0 || i >= len(r.schema) || r.schema[i].Kind != Boolean {
		return nil, fmt.Errorf("relation: attribute %d is not a boolean column", i)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.boolean[r.colIdx[i]], nil
}

// Scan implements Relation. Batches are views into the column stores
// (no copying).
func (r *MemoryRelation) Scan(cols ColumnSet, fn func(*Batch) error) error {
	n, numeric, boolean := r.snapshot()
	return r.scanSnapshot(0, n, n, numeric, boolean, cols, fn)
}

// ScanRange implements Relation.
func (r *MemoryRelation) ScanRange(start, end int, cols ColumnSet, fn func(*Batch) error) error {
	n, numeric, boolean := r.snapshot()
	return r.scanSnapshot(start, end, n, numeric, boolean, cols, fn)
}

// ScanRangePruned implements Relation. A memory relation has no zone
// maps: it delivers every row and never calls skip.
func (r *MemoryRelation) ScanRangePruned(start, end int, cols ColumnSet, pred *Predicate, skip func(rows int) error, fn func(*Batch) error) error {
	if err := pred.Validate(r.schema); err != nil {
		return err
	}
	return r.ScanRange(start, end, cols, fn)
}

// ScanCosts implements Relation: every row costs the same.
func (r *MemoryRelation) ScanCosts(ColumnSet, *Predicate) ([]int, []int64) { return nil, nil }

// scanSnapshot streams rows [start,end) of a captured snapshot.
func (r *MemoryRelation) scanSnapshot(start, end, n int, numeric [][]float64, boolean [][]bool, cols ColumnSet, fn func(*Batch) error) error {
	if err := cols.Validate(r.schema); err != nil {
		return err
	}
	if start < 0 || end > n || start > end {
		return fmt.Errorf("relation: scan range [%d,%d) out of [0,%d)", start, end, n)
	}
	batch := &Batch{
		Numeric: make([][]float64, len(cols.Numeric)),
		Bool:    make([][]bool, len(cols.Bool)),
	}
	for at := start; at < end; at += DefaultBatchSize {
		stop := at + DefaultBatchSize
		if stop > end {
			stop = end
		}
		batch.Len = stop - at
		for k, i := range cols.Numeric {
			batch.Numeric[k] = numeric[r.colIdx[i]][at:stop]
		}
		for k, i := range cols.Bool {
			batch.Bool[k] = boolean[r.colIdx[i]][at:stop]
		}
		if err := fn(batch); err != nil {
			return err
		}
	}
	return nil
}
