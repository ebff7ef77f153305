package relation

import (
	"sort"
	"sync"
)

// CountingRelation wraps a Relation and counts the passes issued
// against it. The paper's cost model is sequential passes over the
// database, so tests and experiments assert on these counters — "MineAll
// costs one sampling pass plus one counting pass" — instead of
// wall-clock time, which is hardware dependent and flaky. It forwards
// the whole contract, so the wrapped relation's plan is unchanged.
// Concurrent scans may share one wrapper; read the counters once they
// have returned.
type CountingRelation struct {
	R Relation
	// Scans counts Scan, ScanRange and ScanRangePruned calls.
	Scans int
	// Rows is the total number of tuples delivered to scan callbacks
	// (a partial scan that aborts early contributes only what it read;
	// rows a pruned scan skips are not delivered).
	Rows int64
	// Ranges records every scan's [start, end) in call order; Scan
	// records [0, NumTuples()).
	Ranges [][2]int
	// PointReads counts ReadNumericPoints calls.
	PointReads int

	mu sync.Mutex // guards the counters while parallel scans run
}

// Schema implements Relation.
func (c *CountingRelation) Schema() Schema { return c.R.Schema() }

// NumTuples implements Relation.
func (c *CountingRelation) NumTuples() int { return c.R.NumTuples() }

// Scan implements Relation.
func (c *CountingRelation) Scan(cols ColumnSet, fn func(*Batch) error) error {
	c.record(0, c.R.NumTuples())
	return c.R.Scan(cols, c.counted(fn))
}

// ScanRange implements Relation.
func (c *CountingRelation) ScanRange(start, end int, cols ColumnSet, fn func(*Batch) error) error {
	c.record(start, end)
	return c.R.ScanRange(start, end, cols, c.counted(fn))
}

// ScanRangePruned implements Relation.
func (c *CountingRelation) ScanRangePruned(start, end int, cols ColumnSet, pred *Predicate, skip func(rows int) error, fn func(*Batch) error) error {
	c.record(start, end)
	return c.R.ScanRangePruned(start, end, cols, pred, skip, c.counted(fn))
}

// ReadNumericPoints implements Relation, counting the call.
func (c *CountingRelation) ReadNumericPoints(attr int, rows []int, out []float64) error {
	c.mu.Lock()
	c.PointReads++
	c.mu.Unlock()
	return c.R.ReadNumericPoints(attr, rows, out)
}

// ScanCosts implements Relation.
func (c *CountingRelation) ScanCosts(cols ColumnSet, pred *Predicate) ([]int, []int64) {
	return c.R.ScanCosts(cols, pred)
}

// record counts one scan of rows [start, end).
func (c *CountingRelation) record(start, end int) {
	c.mu.Lock()
	c.Scans++
	c.Ranges = append(c.Ranges, [2]int{start, end})
	c.mu.Unlock()
}

// counted wraps fn to total the rows it is delivered.
func (c *CountingRelation) counted(fn func(*Batch) error) func(*Batch) error {
	return func(b *Batch) error {
		c.mu.Lock()
		c.Rows += int64(b.Len)
		c.mu.Unlock()
		return fn(b)
	}
}

// Tiles reports whether the scans recorded from the from-th on cover
// rows [start, end) exactly once: taken in order of their first row,
// each non-empty range begins where the previous one ended.
func (c *CountingRelation) Tiles(from, start, end int) bool {
	c.mu.Lock()
	ranges := append([][2]int(nil), c.Ranges[from:]...)
	c.mu.Unlock()
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	at := start
	for _, r := range ranges {
		if r[0] == r[1] {
			continue // empty range: touched nothing
		}
		if r[0] != at {
			return false
		}
		at = r[1]
	}
	return at == end
}

// MinScanned returns the lowest row any recorded scan touched, or -1
// when no scan ran.
func (c *CountingRelation) MinScanned() int {
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
