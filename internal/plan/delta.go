package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
	// Resamples counts boundary sets re-sampled because the appended
	// fraction exceeded the Section 3.4 bucket-error budget;
	// EntriesDropped counts cached groups and grids discarded because
	// their boundaries were re-sampled (or evicted) — they recount cold
	// on next demand. EntriesFolded counts entries advanced by an
	// integer-exact tail fold.
	Resamples      int
	EntriesFolded  int
	EntriesDropped int
	// Invalidated reports the fallback: the relation cannot scan ranges
	// (or shrank), so the whole cache was dropped instead of folded.
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
// statistic, replacing the O(n) invalidate-and-rebuild with an O(Δ)
// counting scan:
//
//   - Cached boundaries within the bucket-error budget are reused as-is
//     (the budget accumulates across repeated appends: the fraction is
//     measured against each entry's sample-time row count, not the
//     previous refresh).
//   - Boundaries over budget are re-sampled over the full relation with
//     the same per-attribute RNG streams a cold session would use, so
//     the replacement cuts are bit-identical to a cold rebuild's; every
//     group and grid counted over replaced cuts is dropped (its old
//     counts are misaligned) and recounts on next demand.
//   - Surviving groups and grids are completed by ONE fused counting
//     scan over just the tail — the batch executor, countRange, run on
//     [oldN, newN) with the same pushdown, chunk plan and retry
//     policy — and
//     advanced to generation gen by integer-exact folds. Float
//     target sums are stripped by the fold (their accumulation order is
//     observable); the next average query recounts them over the full
//     relation, in the serial scan's addition order, and merges them
//     back, keeping every extracted rule bit-identical to a cold
//     rebuild over the same boundaries.
//
// Relations that cannot scan ranges fall back to invalidation. The
// caller (the session layer) must serialize RunDelta against batch
// execution and pass gen = one past the generation the cached entries
// carry.
func RunDelta(ctx context.Context, rel relation.Relation, d Defaults, cache *LRUCache, oldN, newN int, gen int64) (DeltaStats, error) {
	ds := DeltaStats{OldRows: oldN, NewRows: newN}
	if newN == oldN {
		return ds, nil
	}
	_, rangeOK := rel.(relation.RangeScanner)
	if newN < oldN || !rangeOK {
		// Shrinkage means an in-place rewrite, not an append; a relation
		// without range scans gives the tail no address. Either way the
		// cached statistics cannot be reconciled — drop them all.
		st := cache.Stats()
		ds.EntriesDropped = st.Entries
		ds.Invalidated = true
		cache.Invalidate()
		return ds, nil
	}
	if err := ctx.Err(); err != nil {
		return ds, err
	}

	bounds, cachedGroups, cachedPairs := cache.snapshotForDelta()
	if len(cachedGroups) == 0 && len(cachedPairs) == 0 && len(bounds) == 0 {
		return ds, nil
	}

	// Budget check per boundary set, in deterministic key order.
	budget := resampleBudget(d.SampleFactor)
	var boundOrder []BoundKey
	for bk := range bounds {
		boundOrder = append(boundOrder, bk)
	}
	sort.Slice(boundOrder, func(i, j int) bool {
		a, b := boundOrder[i], boundOrder[j]
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if a.M != b.M {
			return a.M < b.M
		}
		return !a.Exact && b.Exact
	})
	resample := map[BoundKey]bool{}
	for _, bk := range boundOrder {
		frac := float64(newN-bounds[bk].Rows) / float64(newN)
		if frac > budget {
			resample[bk] = true
		}
	}

	// Re-sample over-budget boundaries over the FULL relation, one fused
	// sampling pass, per-attribute RNG streams — exactly the cuts a cold
	// session with the same seed would build.
	if len(resample) > 0 {
		var specs []bucketing.BoundarySpec
		var rngs []*rand.Rand
		var keys []BoundKey
		for _, bk := range boundOrder {
			if !resample[bk] {
				continue
			}
			exact := 0
			if bk.Exact {
				exact = d.ExactDomainLimit
			}
			specs = append(specs, bucketing.BoundarySpec{Attr: bk.Attr, M: bk.M,
				SampleFactor: d.SampleFactor, ExactDomainLimit: exact})
			rngs = append(rngs, AttrRNG(d.Seed, bk.Attr))
			keys = append(keys, bk)
		}
		fresh, err := bucketing.MultiSampledBoundarySpecs(rel, specs, rngs)
		if err != nil {
			return ds, fmt.Errorf("plan: delta resampling: %w", err)
		}
		for i, bk := range keys {
			cache.PutBounds(bk, fresh[i], newN)
		}
		ds.Resamples = len(keys)
	}

	// Partition cached groups and grids into foldable survivors and
	// drops. A survivor's boundaries must be cached AND not re-sampled;
	// anything else recounts cold on next demand.
	var groupOrder []GroupKey
	for gk := range cachedGroups {
		groupOrder = append(groupOrder, gk)
	}
	sort.Slice(groupOrder, func(i, j int) bool {
		a, b := groupOrder[i], groupOrder[j]
		if a.Driver != b.Driver {
			return a.Driver < b.Driver
		}
		if a.M != b.M {
			return a.M < b.M
		}
		if a.Exact != b.Exact {
			return !a.Exact
		}
		return a.Filter < b.Filter
	})
	var pairOrder []PairKey
	for pk := range cachedPairs {
		pairOrder = append(pairOrder, pk)
	}
	sort.Slice(pairOrder, func(i, j int) bool {
		a, b := pairOrder[i], pairOrder[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		if a.ObjAttr != b.ObjAttr {
			return a.ObjAttr < b.ObjAttr
		}
		return !a.ObjWant && b.ObjWant
	})

	set := newStatsSet()
	var drops []any
	var groups []*GroupNeed
	for _, gk := range groupOrder {
		bk := BoundKey{Attr: gk.Driver, M: gk.M, Exact: gk.Exact}
		be, ok := bounds[bk]
		if !ok || resample[bk] {
			drops = append(drops, gk)
			continue
		}
		need, err := needFromCachedGroup(gk, cachedGroups[gk])
		if err != nil {
			return ds, err
		}
		set.Bounds[bk] = be.B
		groups = append(groups, need)
	}
	var pairs []*PairNeed
	for _, pk := range pairOrder {
		bkA := BoundKey{Attr: pk.A, M: pk.Side}
		bkB := BoundKey{Attr: pk.B, M: pk.Side}
		beA, okA := bounds[bkA]
		beB, okB := bounds[bkB]
		if !okA || !okB || resample[bkA] || resample[bkB] {
			drops = append(drops, pk)
			continue
		}
		set.Bounds[bkA] = beA.B
		set.Bounds[bkB] = beB.B
		pairs = append(pairs, &PairNeed{Key: pk, A: pk.A, B: pk.B, Side: pk.Side,
			Obj: bucketing.BoolCond{Attr: pk.ObjAttr, Want: pk.ObjWant}})
	}

	if len(drops) > 0 {
		cache.dropForDelta(drops)
		ds.EntriesDropped = len(drops)
	}
	if len(groups) == 0 && len(pairs) == 0 {
		cache.noteDelta(0, 0, int64(ds.Resamples), 0)
		return ds, nil
	}

	// One fused counting scan over the tail only.
	if err := countRange(ctx, rel, d, set, groups, pairs, oldN, newN); err != nil {
		return ds, err
	}
	ds.TailScans = 1
	ds.RowsScanned = int64(newN - oldN)

	// Integer-exact folds, published through the generation-aware puts
	// (the folded entry's newer generation replaces the cached one).
	for _, need := range groups {
		tail := set.Groups[need.Key]
		folded := cachedGroups[need.Key].foldedWith(tail, gen)
		cache.Put1D(need.Key, folded)
		ds.EntriesFolded++
	}
	for _, need := range pairs {
		tail := set.Pairs[need.Key]
		folded, err := cachedPairs[need.Key].foldedWith(tail, gen)
		if err != nil {
			return ds, fmt.Errorf("plan: delta fold: %w", err)
		}
		cache.Put2D(need.Key, folded)
		ds.EntriesFolded++
	}
	cache.noteDelta(int64(ds.TailScans), ds.RowsScanned, int64(ds.Resamples), int64(ds.EntriesFolded))
	return ds, nil
}

// needFromCachedGroup reconstructs the scan requirement a cached group
// answers, from its key and tallied rows alone: the delta executor has
// no query at hand, only the statistic. Float target sums are omitted
// on purpose — the fold strips them (see Stats1D.foldedWith).
func needFromCachedGroup(gk GroupKey, s *Stats1D) (*GroupNeed, error) {
	filter, err := parseCanonicalFilter(gk.Filter)
	if err != nil {
		return nil, err
	}
	bools := make([]bucketing.BoolCond, 0, len(s.V))
	for bc := range s.V {
		bools = append(bools, bc)
	}
	sort.Slice(bools, func(i, j int) bool {
		if bools[i].Attr != bools[j].Attr {
			return bools[i].Attr < bools[j].Attr
		}
		return !bools[i].Want && bools[j].Want
	})
	return &GroupNeed{
		Key:           gk,
		Driver:        gk.Driver,
		Filter:        filter,
		Bools:         bools,
		TrackExtremes: s.MinVal != nil,
	}, nil
}
