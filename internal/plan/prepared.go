package plan

import (
	"fmt"
	"sync"

	"optrule/internal/bucketing"
	"optrule/internal/core"
)

// PreparedRows holds the Section 4 solver inputs one 1-D statistic
// yields: its bucket view with empty buckets dropped, and one slot per
// objective row (keyed by its bucketing.BoolCond) and target row (keyed
// by the target's int attribute) for that row's core.Prepared.
// Thresholds never change them, so each is built once, on first use,
// and shared read-only by every later extraction. LRUCache keeps them
// in the statistic's entry (see LRUCache.Prepared), so they live as
// long as the entry does; a merge or fold publishes a new statistic,
// which gets new rows. The statistic itself stays a plain value.
type PreparedRows struct {
	s       *Stats1D
	once    sync.Once
	compact *bucketing.Counts // U, totals and extremes; no V or Sum rows
	keep    []int             // compact → original bucket; nil if none is empty
	slots   map[any]*preparedSlot
}

// preparedSlot is one row's prepared solver inputs, built under once.
type preparedSlot struct {
	once sync.Once
	p    *core.Prepared
	err  error
}

// rows builds the compacted view and the (still empty) row slots on
// first use. The V and Sum maps never change once the statistic is
// published, so the slots cover every row it will ever have.
func (pr *PreparedRows) rows() *PreparedRows {
	pr.once.Do(func() {
		s := pr.s
		c := &bucketing.Counts{M: s.M, N: s.N, Total: s.Total, NaNs: s.NaNs,
			U: s.U, MinVal: s.MinVal, MaxVal: s.MaxVal}
		pr.compact, pr.keep = c.Compact()
		pr.slots = make(map[any]*preparedSlot, len(s.V)+len(s.Sum))
		for bc := range s.V {
			pr.slots[bc] = &preparedSlot{}
		}
		for t := range s.Sum {
			pr.slots[t] = &preparedSlot{}
		}
	})
	return pr
}

// Compacted returns the statistic's bucket view with empty buckets
// dropped — M, N, Total, NaNs, U and the extremes when tracked, but no
// V or Sum rows — and the compact-to-original bucket mapping, nil when
// no bucket is empty. Callers treat both as read-only.
func (pr *PreparedRows) Compacted() (*bucketing.Counts, []int) {
	pr.rows()
	return pr.compact, pr.keep
}

// V returns the solver inputs for objective row bc over the compacted
// buckets: sizes U, hit counts as float64 values, prefix sums, hull
// points and hull tree. They are built on the first call, by whichever
// extraction gets there first.
func (pr *PreparedRows) V(bc bucketing.BoolCond) (*core.Prepared, error) {
	row, ok := pr.s.V[bc]
	if !ok {
		return nil, fmt.Errorf("plan: objective row %+v missing from cached group", bc)
	}
	return pr.prepared(bc, func(i int) float64 { return float64(row[i]) })
}

// Sum is V for the value-sum row of target attribute t.
func (pr *PreparedRows) Sum(t int) (*core.Prepared, error) {
	row, ok := pr.s.Sum[t]
	if !ok {
		return nil, fmt.Errorf("plan: target row %d missing from cached group", t)
	}
	return pr.prepared(t, func(i int) float64 { return row[i] })
}

// prepared builds, once, the slot for row key, whose value in original
// bucket i is at(i).
func (pr *PreparedRows) prepared(key any, at func(i int) float64) (*core.Prepared, error) {
	slot := pr.rows().slots[key]
	slot.once.Do(func() {
		v := make([]float64, pr.compact.M)
		for j := range v {
			i := j
			if pr.keep != nil {
				i = pr.keep[j]
			}
			v[j] = at(i)
		}
		slot.p, slot.err = core.Prepare(pr.compact.U, v)
	})
	return slot.p, slot.err
}

// preparedBytes is what the statistic's prepared inputs occupy once
// every row is built: a compacted copy of U and the extremes when some
// bucket is empty, plus core.PreparedBytes per objective and target
// row. The cache charges it up front, with the statistic, so the
// budget does not move when extraction later fills the slots.
func (s *Stats1D) preparedBytes() int64 {
	b := int64(len(s.V)+len(s.Sum)) * core.PreparedBytes(s.M)
	for _, u := range s.U {
		if u == 0 {
			b += int64(len(s.U)+len(s.MinVal)+len(s.MaxVal)) * 8
			break
		}
	}
	return b
}
