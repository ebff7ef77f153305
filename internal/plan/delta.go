package plan

import (
	"context"
	"fmt"
	"math"
	"sort"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// DeltaStats reports what one incremental refresh did. It is the
// observable contract of the O(Δ) ingest path: rows scanned must track
// the appended tail, not the relation.
type DeltaStats struct {
	// OldRows/NewRows bracket the refresh: the relation grew from
	// OldRows to NewRows and only [OldRows, NewRows) was new.
	OldRows, NewRows int
	// TailScans counts counting scans issued over the appended tail
	// (0 when the cache held nothing foldable), and RowsScanned the tail
	// rows they covered.
	TailScans   int
	RowsScanned int64
	// Resamples counts boundary sets dropped because the appended
	// fraction exceeded the Section 3.4 bucket-error budget; the next
	// batch that needs one samples it over the whole relation, as a
	// cold session would. EntriesDropped counts cached groups and grids
	// discarded because their boundaries were dropped (or evicted); they
	// recount on next demand. EntriesFolded counts entries advanced by a
	// tail fold.
	Resamples      int
	EntriesFolded  int
	EntriesDropped int
	// Invalidated reports that the relation shrank, so the whole cache
	// was dropped instead of folded.
	Invalidated bool
}

// resampleBudget is the appended-fraction threshold above which cached
// boundaries must be re-sampled. Section 3.4 sizes the sample so each
// bucket's population error stays within ~1/(2*sqrt(sampleFactor)) of
// the 1/M target; an appended fraction beyond that budget can shift
// true bucket populations by more than the sampling error the paper
// already tolerates, so reusing the old cuts would no longer be
// "approximately equi-depth" in the paper's sense. Below the budget the
// appended rows are absorbed as additional (bounded) skew.
func resampleBudget(sampleFactor int) float64 {
	if sampleFactor <= 0 {
		sampleFactor = 40 // the paper's experimental setting, Config's default
	}
	return 0.5 / math.Sqrt(float64(sampleFactor))
}

// RunDelta folds an appended tail [oldN, newN) into every cached
// statistic with one tail-range run of the batch executor, instead of
// an O(n) invalidate-and-rebuild:
//
//   - Cached boundaries within the bucket-error budget are reused as-is
//     (the budget accumulates across repeated appends: the fraction is
//     measured against each entry's sample-time row count, not the
//     previous refresh).
//   - Boundaries over budget are dropped together with every group and
//     grid counted over them. Nothing is re-sampled here: the next batch
//     that needs them misses and samples them in RunContext, with the
//     same per-attribute RNG streams over the whole relation, exactly as
//     a cold session would.
//   - Surviving groups and grids are completed by ONE fused counting
//     scan over just the tail (countRange on [oldN, newN), with the
//     batch's pushdown, chunk plan and retry policy) and advanced to
//     generation gen. Counts add and extremes take min/max. Float
//     target sums continue: the tail scan's ordered replay starts from
//     the cached sums (see newSumLog), which is the cold scan's
//     addition sequence over [0, newN).
//
// So every folded statistic is bit-identical to a cold count over the
// same boundaries. Entries are planned and folded in the cache's own
// order, least recently used first. A relation that shrank drops the
// whole cache instead. The caller (the session layer) must
// serialize RunDelta against batch execution and pass gen = one past
// the generation the cached entries carry.
func RunDelta(ctx context.Context, rel relation.Relation, d Defaults, cache *LRUCache, oldN, newN int, gen int64) (DeltaStats, error) {
	ds := DeltaStats{OldRows: oldN, NewRows: newN}
	if newN == oldN {
		return ds, nil
	}
	entries := cache.snapshot()
	if newN < oldN {
		// Shrinkage means an in-place rewrite, not an append: the cached
		// statistics cannot be reconciled — drop them all.
		for _, e := range entries {
			if _, ok := e.key.(BoundKey); !ok {
				ds.EntriesDropped++
			}
		}
		ds.Invalidated = true
		cache.Invalidate()
		return ds, nil
	}
	if err := ctx.Err(); err != nil {
		return ds, err
	}

	// Boundaries within the budget stay in the working set; the rest go.
	budget := resampleBudget(d.SampleFactor)
	set := newStatsSet()
	var drops []any
	for _, e := range entries {
		if bk, ok := e.key.(BoundKey); ok {
			be := e.value.(BoundEntry)
			if float64(newN-be.Rows)/float64(newN) > budget {
				drops = append(drops, bk)
				ds.Resamples++
			} else {
				set.Bounds[bk] = be.B
			}
		}
	}

	// A group or grid folds when every boundary set it was counted over
	// stays; anything else recounts cold on next demand. A folded
	// group's cached statistic also sits in the working set, where it
	// seeds the tail scan's target sums.
	keep := func(bks ...BoundKey) bool {
		for _, bk := range bks {
			if _, ok := set.Bounds[bk]; !ok {
				return false
			}
		}
		return true
	}
	var groups []*GroupNeed
	var pairs []*PairNeed
	var cached1D []*Stats1D
	var cached2D []*Stats2D
	for _, e := range entries {
		switch k := e.key.(type) {
		case GroupKey:
			if !keep(BoundKey{Attr: k.Driver, M: k.M, Exact: k.Exact}) {
				drops = append(drops, k)
				ds.EntriesDropped++
				continue
			}
			s := e.value.(*Stats1D)
			set.Groups[k] = s
			groups = append(groups, needFromCachedGroup(k, s))
			cached1D = append(cached1D, s)
		case PairKey:
			if !keep(BoundKey{Attr: k.A, M: k.Side}, BoundKey{Attr: k.B, M: k.Side}) {
				drops = append(drops, k)
				ds.EntriesDropped++
				continue
			}
			pairs = append(pairs, &PairNeed{Key: k, A: k.A, B: k.B, Side: k.Side,
				Obj: bucketing.BoolCond{Attr: k.ObjAttr, Want: k.ObjWant}})
			cached2D = append(cached2D, e.value.(*Stats2D))
		}
	}
	cache.dropForDelta(drops)
	if len(groups) == 0 && len(pairs) == 0 {
		return ds, nil
	}

	if err := countRange(ctx, rel, d, set, groups, pairs, oldN, newN); err != nil {
		return ds, err
	}
	ds.TailScans = 1
	ds.RowsScanned = int64(newN - oldN)

	// Publish through the generation-aware puts: the folded entry's
	// newer generation replaces the cached one.
	for i, need := range groups {
		cache.Put1D(need.Key, cached1D[i].foldedWith(set.Groups[need.Key], gen))
	}
	for i, need := range pairs {
		folded, err := cached2D[i].foldedWith(set.Pairs[need.Key], gen)
		if err != nil {
			return ds, fmt.Errorf("plan: delta fold: %w", err)
		}
		cache.Put2D(need.Key, folded)
	}
	ds.EntriesFolded = len(groups) + len(pairs)
	return ds, nil
}

// needFromCachedGroup rebuilds the scan requirement a cached group
// answers from the statistic alone (the refresh has no query at hand):
// the filter it was counted under, every tallied objective row and
// target sum, in sorted order, and its extremes when tracked.
func needFromCachedGroup(gk GroupKey, s *Stats1D) *GroupNeed {
	need := &GroupNeed{Key: gk, Driver: gk.Driver, Filter: s.filter, TrackExtremes: s.MinVal != nil}
	for bc := range s.V {
		need.Bools = append(need.Bools, bc)
	}
	sortConds(need.Bools)
	for t := range s.Sum {
		need.Targets = append(need.Targets, t)
	}
	sort.Ints(need.Targets)
	return need
}
