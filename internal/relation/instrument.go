package relation

import "sync"

// CountingRelation wraps a Relation and counts the scans issued against
// it. The paper's cost model is sequential passes over the database, so
// tests and experiments assert on this counter — "MineAll costs one
// sampling scan plus one counting scan" — instead of wall-clock time,
// which is hardware dependent and flaky. Concurrent scans may share one
// wrapper; read the counters once they have returned.
type CountingRelation struct {
	R Relation
	// Scans is the number of Scan calls issued.
	Scans int
	// Rows is the total number of tuples delivered to scan callbacks
	// (a partial scan that aborts early contributes only what it read).
	Rows int64

	mu sync.Mutex // guards Scans and Rows while scans run
}

// Schema implements Relation.
func (c *CountingRelation) Schema() Schema { return c.R.Schema() }

// NumTuples implements Relation.
func (c *CountingRelation) NumTuples() int { return c.R.NumTuples() }

// Scan implements Relation, counting the pass and the rows it delivers.
func (c *CountingRelation) Scan(cols ColumnSet, fn func(*Batch) error) error {
	c.mu.Lock()
	c.Scans++
	c.mu.Unlock()
	return c.R.Scan(cols, func(b *Batch) error {
		c.mu.Lock()
		c.Rows += int64(b.Len)
		c.mu.Unlock()
		return fn(b)
	})
}

// RangeCountingRelation wraps a RangeScanner and counts both full scans
// and range scans, recording each range's bounds. The delta-merge tests
// assert on it: an incremental refresh must issue scans covering ONLY
// the appended tail, never the prefix the cache already summarizes.
// (CountingRelation deliberately does not implement RangeScanner —
// existing tests rely on wrapped relations dropping that capability —
// hence a separate wrapper.)
type RangeCountingRelation struct {
	R RangeScanner
	// Scans counts Scan plus ScanRange calls; Rows totals delivered
	// tuples across both.
	Scans int
	Rows  int64
	// Ranges records every ScanRange's [start, end) in call order; full
	// Scans record [0, NumTuples()).
	Ranges [][2]int

	mu sync.Mutex // guards the counters while parallel range scans run
}

// Schema implements Relation.
func (c *RangeCountingRelation) Schema() Schema { return c.R.Schema() }

// NumTuples implements Relation.
func (c *RangeCountingRelation) NumTuples() int { return c.R.NumTuples() }

// Scan implements Relation.
func (c *RangeCountingRelation) Scan(cols ColumnSet, fn func(*Batch) error) error {
	c.record(0, c.R.NumTuples())
	return c.R.Scan(cols, c.counted(fn))
}

// ScanRange implements RangeScanner.
func (c *RangeCountingRelation) ScanRange(start, end int, cols ColumnSet, fn func(*Batch) error) error {
	c.record(start, end)
	return c.R.ScanRange(start, end, cols, c.counted(fn))
}

// record counts one scan of rows [start, end).
func (c *RangeCountingRelation) record(start, end int) {
	c.mu.Lock()
	c.Scans++
	c.Ranges = append(c.Ranges, [2]int{start, end})
	c.mu.Unlock()
}

// counted wraps fn to total the rows it is delivered.
func (c *RangeCountingRelation) counted(fn func(*Batch) error) func(*Batch) error {
	return func(b *Batch) error {
		c.mu.Lock()
		c.Rows += int64(b.Len)
		c.mu.Unlock()
		return fn(b)
	}
}

// MinScanned returns the lowest row any recorded scan touched, or -1
// when no scan ran.
func (c *RangeCountingRelation) MinScanned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	min := -1
	for _, r := range c.Ranges {
		if r[0] == r[1] {
			continue // empty range: touched nothing
		}
		if min == -1 || r[0] < min {
			min = r[0]
		}
	}
	return min
}
