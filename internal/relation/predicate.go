package relation

import (
	"fmt"
	"math"
)

// BoolPredicate requires the Boolean attribute at schema index Attr to
// equal Want.
type BoolPredicate struct {
	Attr int
	Want bool
}

// RangePredicate requires the numeric attribute at schema index Attr to
// lie in [Lo, Hi] (inclusive). NaN values never match, matching the
// counting kernels' NaN handling.
type RangePredicate struct {
	Attr   int
	Lo, Hi float64
}

// Predicate is a conjunction of per-attribute conditions a pruned scan
// may exploit. Pruning is an OPTIMIZATION, not a filter: a pruned scan
// still delivers every row of any block that MIGHT contain a match, so
// callers must keep applying their own filter logic to delivered rows.
// What pruning guarantees is the converse — a skipped block provably
// contains no matching row — which is why skipping can never change
// what the caller counts.
type Predicate struct {
	Bools  []BoolPredicate
	Ranges []RangePredicate
}

// Empty reports whether the predicate has no conditions (and thus can
// prune nothing).
func (p *Predicate) Empty() bool {
	return p == nil || (len(p.Bools) == 0 && len(p.Ranges) == 0)
}

// Validate checks every condition against the schema: attributes must
// exist and have the right kind, and range bounds must not be NaN
// (a NaN bound satisfies no row, which is almost certainly a caller
// bug — reject it loudly rather than silently scanning everything).
func (p *Predicate) Validate(s Schema) error {
	if p == nil {
		return nil
	}
	for _, bp := range p.Bools {
		if bp.Attr < 0 || bp.Attr >= len(s) || s[bp.Attr].Kind != Boolean {
			return fmt.Errorf("relation: predicate attribute %d is not a boolean column", bp.Attr)
		}
	}
	for _, rp := range p.Ranges {
		if rp.Attr < 0 || rp.Attr >= len(s) || s[rp.Attr].Kind != Numeric {
			return fmt.Errorf("relation: predicate attribute %d is not a numeric column", rp.Attr)
		}
		if math.IsNaN(rp.Lo) || math.IsNaN(rp.Hi) {
			return fmt.Errorf("relation: predicate range on attribute %d has a NaN bound", rp.Attr)
		}
	}
	return nil
}

// PrunedRangeScanner is Relation: every relation serves pruned range
// scans, delivering every row where it has no zone maps.
type PrunedRangeScanner = Relation

// ScanRangePruned implements Relation: v3 files consult their zone
// maps; v1/v2 files have none and deliver every row.
func (dr *DiskRelation) ScanRangePruned(start, end int, cols ColumnSet, pred *Predicate, skip func(rows int) error, fn func(*Batch) error) error {
	dr.ops.RLock()
	defer dr.ops.RUnlock()
	if err := cols.Validate(dr.schema); err != nil {
		return err
	}
	if err := pred.Validate(dr.schema); err != nil {
		return err
	}
	if start < 0 || end > dr.numRows || start > end {
		return fmt.Errorf("relation: scan range [%d,%d) out of [0,%d)", start, end, dr.numRows)
	}
	if start == end {
		return nil
	}
	if dr.version == DiskFormatV3 && !pred.Empty() {
		if skip == nil {
			skip = func(int) error { return nil }
		}
		return dr.scanBlocks(start, end, cols, pred, skip, fn)
	}
	return dr.ScanRange(start, end, cols, fn)
}
