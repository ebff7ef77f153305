package plan

import (
	"fmt"
	"sort"
	"strings"

	"optrule/internal/bucketing"
	"optrule/internal/region"
)

// Sufficient-statistic keys. Everything a scan produces is addressed by
// one of the three key types below; thresholds, rule kinds, and region
// classes never appear in a key because they do not change what the
// scans compute.

// BoundKey identifies one attribute's bucket boundaries: the attribute,
// the bucket count, and whether the finest-bucket (exact small domain)
// path was enabled when they were built. Within one session the random
// seed, sample factor, and exact-domain limit are fixed, so they are
// not part of the key.
type BoundKey struct {
	Attr  int
	M     int
	Exact bool
}

// GroupKey identifies one driver attribute's per-bucket count group:
// the driver, its boundary resolution, and the canonical presumptive
// filter. The objectives and targets tallied within the group are NOT
// part of the key — a cached group grows monotonically as queries ask
// for more objective rows over the same buckets.
type GroupKey struct {
	Driver int
	M      int
	Exact  bool
	Filter string // canonical filter rendering, "" when unfiltered
}

// PairKey identifies one 2-D pair grid: both axis attributes (in grid
// orientation: A buckets rows, B buckets columns), the per-axis side,
// and the objective condition.
type PairKey struct {
	A, B    int
	Side    int
	ObjAttr int
	ObjWant bool
}

// canonicalFilter renders a conjunction of Boolean conditions as a
// deterministic key component: sorted by attribute then value, with
// duplicates removed (a conjunction is a set). Counting semantics are
// order- and duplicate-insensitive, so queries spelling the same
// conjunction differently share one statistic.
func canonicalFilter(conds []bucketing.BoolCond) (string, []bucketing.BoolCond) {
	if len(conds) == 0 {
		return "", nil
	}
	canon := append([]bucketing.BoolCond(nil), conds...)
	sortConds(canon)
	uniq := canon[:0]
	for _, c := range canon {
		if len(uniq) == 0 || uniq[len(uniq)-1] != c {
			uniq = append(uniq, c)
		}
	}
	var b strings.Builder
	for i, c := range uniq {
		if i > 0 {
			b.WriteByte(',')
		}
		v := 0
		if c.Want {
			v = 1
		}
		fmt.Fprintf(&b, "%d=%d", c.Attr, v)
	}
	return b.String(), uniq
}

// sortConds orders conditions by attribute, then false before true.
func sortConds(conds []bucketing.BoolCond) {
	sort.Slice(conds, func(i, j int) bool {
		if conds[i].Attr != conds[j].Attr {
			return conds[i].Attr < conds[j].Attr
		}
		return !conds[i].Want && conds[j].Want
	})
}

// Stats1D is one driver group's cached sufficient statistics: the
// bucket populations plus whatever objective rows, target sums, and
// extremes have been tallied for it so far. All slices are read-only
// once published to a cache — extraction layers must not mutate them.
type Stats1D struct {
	M     int
	N     int // tuples passing the filter and landing in a bucket
	Total int // tuples scanned (before the filter)
	NaNs  int // filter-passing tuples whose driver value was NaN
	// Gen is the cache generation the statistic covers (how many
	// incremental refreshes of the relation it has absorbed). A
	// generation-aware cache refuses to merge partials across different
	// generations — they were counted over different row sets.
	Gen int64
	U   []int
	// MinVal/MaxVal are observed per-bucket driver extremes; nil when
	// never tracked for this group.
	MinVal, MaxVal []float64
	// V holds one per-bucket objective count row per tallied condition.
	V map[bucketing.BoolCond][]int
	// Sum holds one per-bucket value-sum row per tallied target.
	Sum map[int][]float64
	// filter is the canonical filter the group was counted under
	// (GroupNeed.Filter), so a refresh can count an appended tail under
	// the same conditions.
	filter []bucketing.BoolCond
}

// Covers reports whether the statistic already holds everything need
// asks for, i.e. the need can be answered without any scan.
func (s *Stats1D) Covers(need *GroupNeed) bool {
	if s == nil {
		return false
	}
	if need.TrackExtremes && s.MinVal == nil {
		return false
	}
	for _, bc := range need.Bools {
		if _, ok := s.V[bc]; !ok {
			return false
		}
	}
	for _, t := range need.Targets {
		if _, ok := s.Sum[t]; !ok {
			return false
		}
	}
	return true
}

// mergedWith returns a NEW statistic holding the union of s's and
// fresh's rows, leaving both inputs untouched: published Stats1D
// values are read concurrently without locks, so the cache merges by
// copy-on-write rather than mutation. The bucket populations of both
// sides were counted over identical boundaries and rows, so
// U/N/extremes are interchangeable; s's rows win on overlap.
func (s *Stats1D) mergedWith(fresh *Stats1D) *Stats1D {
	out := &Stats1D{
		M: s.M, N: s.N, Total: s.Total, NaNs: s.NaNs, Gen: s.Gen,
		U:      s.U,
		MinVal: s.MinVal, MaxVal: s.MaxVal,
		V:      make(map[bucketing.BoolCond][]int, len(s.V)+len(fresh.V)),
		Sum:    make(map[int][]float64, len(s.Sum)+len(fresh.Sum)),
		filter: s.filter,
	}
	if out.MinVal == nil {
		out.MinVal, out.MaxVal = fresh.MinVal, fresh.MaxVal
	}
	for bc, row := range s.V {
		out.V[bc] = row
	}
	for bc, row := range fresh.V {
		if _, ok := out.V[bc]; !ok {
			out.V[bc] = row
		}
	}
	for t, row := range s.Sum {
		out.Sum[t] = row
	}
	for t, row := range fresh.Sum {
		if _, ok := out.Sum[t]; !ok {
			out.Sum[t] = row
		}
	}
	return out
}

// foldedWith returns a NEW statistic equal to s plus the appended
// tail's tallies, advancing the generation to gen. Like mergedWith it
// is copy-on-write: published statistics are read concurrently without
// locks, so neither input is touched. Counts add and extremes take
// min/max, exactly. Target sums are taken from tail as they are: the
// tail scan's replay started from s's sums (see newSumLog), so they
// already continue the cold scan's addition sequence over every row.
// Rows of s that tail does not carry are dropped (the tail scan is
// planned FROM s, so in practice tail carries everything).
func (s *Stats1D) foldedWith(tail *Stats1D, gen int64) *Stats1D {
	out := &Stats1D{
		M: s.M, N: s.N + tail.N, Total: s.Total + tail.Total, NaNs: s.NaNs + tail.NaNs,
		Gen:    gen,
		U:      addInts(s.U, tail.U),
		V:      make(map[bucketing.BoolCond][]int, len(s.V)),
		Sum:    tail.Sum,
		filter: s.filter,
	}
	if s.MinVal != nil && tail.MinVal != nil {
		out.MinVal = foldExtremes(s.MinVal, tail.MinVal, false)
		out.MaxVal = foldExtremes(s.MaxVal, tail.MaxVal, true)
	}
	for bc, row := range s.V {
		if tailRow, ok := tail.V[bc]; ok {
			out.V[bc] = addInts(row, tailRow)
		}
	}
	return out
}

// addInts returns a+b elementwise in fresh storage.
func addInts(a, b []int) []int {
	out := make([]int, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// foldExtremes returns the elementwise min (or max) in fresh storage.
func foldExtremes(a, b []float64, max bool) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i]
		if (max && b[i] > out[i]) || (!max && b[i] < out[i]) {
			out[i] = b[i]
		}
	}
	return out
}

// sizeBytes estimates the statistic's memory footprint for cache
// accounting, its prepared solver inputs included.
func (s *Stats1D) sizeBytes() int64 {
	b := int64(64) + s.preparedBytes() // struct + map overhead, roughly
	b += int64(len(s.U)) * 8
	b += int64(len(s.MinVal)+len(s.MaxVal)) * 8
	for _, row := range s.V {
		b += int64(len(row))*8 + 32
	}
	for _, row := range s.Sum {
		b += int64(len(row))*8 + 32
	}
	return b
}

// Stats2D is one attribute pair's cached grid plus the per-bucket value
// extremes that translate bucket ranges back to closed value ranges. A
// tuple counts toward a pair iff BOTH its values are finite, so the
// extremes are tracked per pair, not per attribute. Read-only once
// published.
type Stats2D struct {
	Grid       *region.Grid
	MinA, MaxA []float64
	MinB, MaxB []float64
	N, Hits    int
	// Gen mirrors Stats1D.Gen: the cache generation the grid covers.
	Gen int64
}

// sizeBytes estimates the grid's memory footprint for cache accounting.
func (s *Stats2D) sizeBytes() int64 {
	cells := int64(s.Grid.Rows()) * int64(s.Grid.Cols())
	return cells*16 + int64(len(s.MinA)+len(s.MaxA)+len(s.MinB)+len(s.MaxB))*8 + 64
}

// foldedWith returns a NEW grid statistic equal to s plus the appended
// tail's cells, advancing the generation to gen. Cell counts and the
// objective tallies are exact small integers (the tallies are
// integer-valued float64s, exact under addition), and the per-bucket
// extremes fold by min/max, so the result is bit-identical to counting
// prefix+tail in one scan over the same boundaries.
func (s *Stats2D) foldedWith(tail *Stats2D, gen int64) (*Stats2D, error) {
	g, err := region.NewGrid(s.Grid.Rows(), s.Grid.Cols())
	if err != nil {
		return nil, err
	}
	if err := g.Merge(s.Grid); err != nil {
		return nil, err
	}
	if err := g.Merge(tail.Grid); err != nil {
		return nil, err
	}
	return &Stats2D{
		Grid: g,
		MinA: foldExtremes(s.MinA, tail.MinA, false), MaxA: foldExtremes(s.MaxA, tail.MaxA, true),
		MinB: foldExtremes(s.MinB, tail.MinB, false), MaxB: foldExtremes(s.MaxB, tail.MaxB, true),
		N: s.N + tail.N, Hits: s.Hits + tail.Hits,
		Gen: gen,
	}, nil
}

// GroupNeed is a planner-aggregated 1-D requirement: one count group
// and the union of objective rows, target rows, and extremes every
// query in the batch wants from it.
type GroupNeed struct {
	Key           GroupKey
	Driver        int
	Filter        []bucketing.BoolCond // canonical order
	Bools         []bucketing.BoolCond // union, first-seen order
	Targets       []int                // union, first-seen order
	TrackExtremes bool
}

// boundKey names the boundary set the group buckets its driver by.
func (n *GroupNeed) boundKey() BoundKey {
	return BoundKey{Attr: n.Driver, M: n.Key.M, Exact: n.Key.Exact}
}

// addBools unions conditions into the need.
func (n *GroupNeed) addBools(conds []bucketing.BoolCond) {
	for _, bc := range conds {
		seen := false
		for _, have := range n.Bools {
			if have == bc {
				seen = true
				break
			}
		}
		if !seen {
			n.Bools = append(n.Bools, bc)
		}
	}
}

// addTargets unions target attributes into the need.
func (n *GroupNeed) addTargets(targets []int) {
	for _, t := range targets {
		seen := false
		for _, have := range n.Targets {
			if have == t {
				seen = true
				break
			}
		}
		if !seen {
			n.Targets = append(n.Targets, t)
		}
	}
}

// PairNeed is a planner-aggregated 2-D requirement.
type PairNeed struct {
	Key  PairKey
	A, B int
	Side int
	Obj  bucketing.BoolCond
}

// StatsSet is the working set one batch execution assembles: every
// boundary, group, and pair statistic the batch's queries bind to. It
// is private to the batch, so extraction never races cache eviction.
type StatsSet struct {
	Bounds map[BoundKey]bucketing.Boundaries
	Groups map[GroupKey]*Stats1D
	Pairs  map[PairKey]*Stats2D
}

func newStatsSet() *StatsSet {
	return &StatsSet{
		Bounds: map[BoundKey]bucketing.Boundaries{},
		Groups: map[GroupKey]*Stats1D{},
		Pairs:  map[PairKey]*Stats2D{},
	}
}
