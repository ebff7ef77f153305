package bucketing

import (
	"fmt"
	"math"

	"optrule/internal/relation"
)

// BoolCond is a primitive Boolean condition (A = yes) or (A = no) used
// both as the objective condition C of a rule and, conjoined, as the
// presumptive condition C1 of the generalized rules of Section 4.3.
type BoolCond struct {
	Attr int  // schema position of a Boolean attribute
	Want bool // required value
}

// Options selects what the counting pass tallies per bucket.
type Options struct {
	// Bools lists the Boolean objective conditions whose per-bucket
	// "yes" counts v_i are needed — one V row per entry.
	Bools []BoolCond
	// Targets lists numeric attributes whose per-bucket value sums are
	// needed (Section 5, optimized ranges for the average operator) —
	// one Sum row per entry.
	Targets []int
	// Filter, if non-empty, is a conjunction of Boolean conditions C1:
	// tuples failing any condition are excluded from all counts. This is
	// exactly the u_i/v_i redefinition of Section 4.3.
	Filter []BoolCond
	// TrackExtremes records the minimum and maximum driver value
	// actually observed in each bucket, so reported rule ranges are the
	// paper's closed intervals [x_s, y_t] over real data values rather
	// than cut-point intervals.
	TrackExtremes bool
}

// Counts are per-bucket statistics for one driver attribute.
type Counts struct {
	// M is the number of buckets.
	M int
	// N is the number of tuples that passed the filter (Σ U).
	N int
	// Total is the number of tuples scanned (before the filter).
	Total int
	// NaNs is the number of filtered-in tuples whose driver value was
	// NaN; such tuples belong to no bucket and are excluded from every
	// statistic. Real-world numeric columns contain missing values, and
	// silently binning them would corrupt every range.
	NaNs int
	// U[i] is u_i: tuples whose driver value lies in bucket i.
	U []int
	// V[k][i] is v_i for Options.Bools[k]: tuples in bucket i that also
	// meet the k-th objective condition.
	V [][]int
	// Sum[k][i] is the sum of Options.Targets[k] values over bucket i.
	Sum [][]float64
	// MinVal/MaxVal are the observed driver extremes per bucket
	// (+Inf/−Inf for empty buckets); only set if TrackExtremes.
	MinVal, MaxVal []float64
}

// newCounts allocates zeroed counts for m buckets.
func newCounts(m int, opts Options) *Counts {
	c := &Counts{
		M:   m,
		U:   make([]int, m),
		V:   make([][]int, len(opts.Bools)),
		Sum: make([][]float64, len(opts.Targets)),
	}
	for k := range c.V {
		c.V[k] = make([]int, m)
	}
	for k := range c.Sum {
		c.Sum[k] = make([]float64, m)
	}
	if opts.TrackExtremes {
		c.MinVal = make([]float64, m)
		c.MaxVal = make([]float64, m)
		for i := 0; i < m; i++ {
			c.MinVal[i] = math.Inf(1)
			c.MaxVal[i] = math.Inf(-1)
		}
	}
	return c
}

// Compact removes empty buckets, returning counts whose buckets all
// satisfy the u_i >= 1 assumption of Section 4's algorithms, plus a
// mapping from compact bucket index to original bucket index. When no
// bucket is empty it returns c itself and a nil mapping (the
// identity). Adjacent bucket order is preserved, so ranges of
// consecutive compact buckets are still ranges of consecutive original
// buckets.
func (c *Counts) Compact() (*Counts, []int) {
	nonEmpty := 0
	for _, u := range c.U {
		if u > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == c.M {
		return c, nil
	}
	keep := make([]int, 0, nonEmpty)
	for i, u := range c.U {
		if u > 0 {
			keep = append(keep, i)
		}
	}
	out := &Counts{
		M:     len(keep),
		N:     c.N,
		Total: c.Total,
		NaNs:  c.NaNs,
		U:     make([]int, len(keep)),
		V:     make([][]int, len(c.V)),
		Sum:   make([][]float64, len(c.Sum)),
	}
	for k := range c.V {
		out.V[k] = make([]int, len(keep))
	}
	for k := range c.Sum {
		out.Sum[k] = make([]float64, len(keep))
	}
	if c.MinVal != nil {
		out.MinVal = make([]float64, len(keep))
		out.MaxVal = make([]float64, len(keep))
	}
	for j, i := range keep {
		out.U[j] = c.U[i]
		for k := range c.V {
			out.V[k][j] = c.V[k][i]
		}
		for k := range c.Sum {
			out.Sum[k][j] = c.Sum[k][i]
		}
		if c.MinVal != nil {
			out.MinVal[j] = c.MinVal[i]
			out.MaxVal[j] = c.MaxVal[i]
		}
	}
	return out, keep
}

// validateOptions checks every referenced attribute against the schema.
func validateOptions(s relation.Schema, driver int, opts Options) error {
	if driver < 0 || driver >= len(s) || s[driver].Kind != relation.Numeric {
		return fmt.Errorf("bucketing: driver attribute %d is not a numeric column", driver)
	}
	for _, bc := range opts.Bools {
		if bc.Attr < 0 || bc.Attr >= len(s) || s[bc.Attr].Kind != relation.Boolean {
			return fmt.Errorf("bucketing: objective attribute %d is not a boolean column", bc.Attr)
		}
	}
	for _, a := range opts.Targets {
		if a < 0 || a >= len(s) || s[a].Kind != relation.Numeric {
			return fmt.Errorf("bucketing: target attribute %d is not a numeric column", a)
		}
	}
	for _, bc := range opts.Filter {
		if bc.Attr < 0 || bc.Attr >= len(s) || s[bc.Attr].Kind != relation.Boolean {
			return fmt.Errorf("bucketing: filter attribute %d is not a boolean column", bc.Attr)
		}
	}
	return nil
}

// scanColumns assembles the column set one counting scan needs:
// driver + targets (numeric) and objective + filter attributes (bool).
// It returns the set plus the position of each logical column within
// it: the driver is numeric column 0, and a Boolean attribute named by
// both an objective and the filter is read once.
func scanColumns(driver int, opts Options) (cols relation.ColumnSet, targetPos []int, boolPos []int, filterPos []int) {
	cols.Numeric = append(cols.Numeric, driver)
	targetPos = make([]int, len(opts.Targets))
	for k, a := range opts.Targets {
		targetPos[k] = len(cols.Numeric)
		cols.Numeric = append(cols.Numeric, a)
	}
	boolAt := map[int]int{}
	add := func(attr int) int {
		if p, ok := boolAt[attr]; ok {
			return p
		}
		p := len(cols.Bool)
		boolAt[attr] = p
		cols.Bool = append(cols.Bool, attr)
		return p
	}
	boolPos = make([]int, len(opts.Bools))
	for k, bc := range opts.Bools {
		boolPos[k] = add(bc.Attr)
	}
	filterPos = make([]int, len(opts.Filter))
	for k, bc := range opts.Filter {
		filterPos[k] = add(bc.Attr)
	}
	return cols, targetPos, boolPos, filterPos
}

// countBatch tallies one batch into c.
func countBatch(c *Counts, b *relation.Batch, bounds Boundaries, opts Options, targetPos, boolPos, filterPos []int) {
	driver := b.Numeric[0]
	c.Total += b.Len
	filtered := len(opts.Filter) > 0
	for row := 0; row < b.Len; row++ {
		if filtered {
			pass := true
			for k, bc := range opts.Filter {
				if b.Bool[filterPos[k]][row] != bc.Want {
					pass = false
					break
				}
			}
			if !pass {
				continue
			}
		}
		x := driver[row]
		if math.IsNaN(x) {
			c.NaNs++
			continue
		}
		i := bounds.Locate(x)
		c.N++
		c.U[i]++
		for k, bc := range opts.Bools {
			if b.Bool[boolPos[k]][row] == bc.Want {
				c.V[k][i]++
			}
		}
		for k := range opts.Targets {
			c.Sum[k][i] += b.Numeric[targetPos[k]][row]
		}
		if c.MinVal != nil {
			if x < c.MinVal[i] {
				c.MinVal[i] = x
			}
			if x > c.MaxVal[i] {
				c.MaxVal[i] = x
			}
		}
	}
}

// Count performs step 4 of Algorithm 3.1 in a single sequential scan:
// it assigns every tuple to its bucket by binary search and accumulates
// the per-bucket statistics requested in opts. O(N log M). A filter is
// pushed down to the storage layer as the scan's predicate (see
// filterPred).
func Count(rel relation.Relation, driver int, bounds Boundaries, opts Options) (*Counts, error) {
	if err := validateOptions(rel.Schema(), driver, opts); err != nil {
		return nil, err
	}
	cols, targetPos, boolPos, filterPos := scanColumns(driver, opts)
	c := newCounts(bounds.NumBuckets(), opts)
	err := rel.ScanRangePruned(0, rel.NumTuples(), cols, filterPred(opts), c.skip, func(b *relation.Batch) error {
		countBatch(c, b, bounds, opts, targetPos, boolPos, filterPos)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// filterPred returns opts.Filter as a pushdown predicate, or nil when
// there is no filter. Every filter condition is a Boolean conjunct,
// which is exactly what the v3 zone maps (per-block true counts) can
// refute.
func filterPred(opts Options) *relation.Predicate {
	if len(opts.Filter) == 0 {
		return nil
	}
	pred := &relation.Predicate{}
	for _, bc := range opts.Filter {
		pred.Bools = append(pred.Bools, relation.BoolPredicate{Attr: bc.Attr, Want: bc.Want})
	}
	return pred
}

// skip accounts rows a pruned scan never read. The filter provably
// rejects them, so Total is the only statistic they touch; the counts
// are identical whether a block group is skipped or read and filtered.
func (c *Counts) skip(rows int) error {
	c.Total += rows
	return nil
}
