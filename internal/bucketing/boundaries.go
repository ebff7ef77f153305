// Package bucketing implements Section 3 of the paper: dividing the
// domain of a numeric attribute into M almost equi-depth buckets
// without sorting the database (Algorithm 3.1), the parallel counting
// variant (Algorithm 3.2), the sort-based baselines the paper compares
// against in Figure 9 (Naive Sort and Vertical Split Sort), and the
// counting pass that produces the per-bucket statistics (u_i, v_i,
// target sums) consumed by the optimized-rule algorithms of Section 4.
package bucketing

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"optrule/internal/relation"
	"optrule/internal/sampling"
	"optrule/internal/stats"
)

// Boundaries are the interior cut points p_1 <= … <= p_{M−1} of a
// bucketing: bucket 0 is (−∞, p_1], bucket i is (p_i, p_{i+1}], bucket
// M−1 is (p_{M−1}, +∞). This matches step 4 of Algorithm 3.1, which
// assigns tuple value x to the bucket with p_{i−1} < x <= p_i.
type Boundaries struct {
	cuts []float64
	// Locate acceleration: an equi-width slot table over the cut span.
	// slotBase[s] is the first cut index whose slot is >= s, so a lookup
	// narrows the binary search to the (usually empty or single-cut)
	// range of one slot. Nil when the span is degenerate or tiny; Locate
	// then falls back to the plain binary search.
	slotBase  []int32
	slotLo    float64
	slotScale float64
	// cutsPad is cuts followed by two +Inf sentinels, so LocateBatch's
	// final two-candidate refinement can load both candidate cuts
	// unconditionally (independent loads instead of a dependent chain).
	// Built with slotBase.
	cutsPad []float64
}

// locateIndexMinCuts is the cut count below which the slot table is not
// worth its footprint.
const locateIndexMinCuts = 16

// NewBoundaries wraps interior cut points. The cuts must be
// non-decreasing and NaN-free (NaN defeats any ordering, so it can
// never be a meaningful cut); M buckets need M−1 cuts.
func NewBoundaries(cuts []float64) (Boundaries, error) {
	for i, c := range cuts {
		if math.IsNaN(c) {
			return Boundaries{}, fmt.Errorf("bucketing: cut %d is NaN", i)
		}
		if i > 0 && c < cuts[i-1] {
			return Boundaries{}, fmt.Errorf("bucketing: cuts not sorted at %d: %g < %g", i, c, cuts[i-1])
		}
	}
	b := Boundaries{cuts: cuts}
	b.buildLocateIndex()
	return b, nil
}

// buildLocateIndex precomputes the slot table. Counting spends most of
// its CPU in Locate (one lookup per tuple per driver), so an O(1)
// average-case locate is what lets the scan itself dominate the
// counting pass, as the paper's out-of-core cost model assumes.
func (b *Boundaries) buildLocateIndex() {
	cuts := b.cuts
	if len(cuts) < locateIndexMinCuts {
		return
	}
	lo, hi := cuts[0], cuts[len(cuts)-1]
	span := hi - lo
	// Degenerate spans (all cuts equal, infinities) keep binary search.
	if !(span > 0) || math.IsInf(span, 0) {
		return
	}
	k := 4 * len(cuts)
	scale := float64(k) / span
	if math.IsInf(scale, 0) || scale <= 0 {
		return
	}
	b.slotLo, b.slotScale = lo, scale
	// slotOf is monotone in x, so cut slots are non-decreasing; fill
	// base[s] = first cut index whose slot is >= s.
	base := make([]int32, k+1)
	i := 0
	for s := 0; s <= k; s++ {
		for i < len(cuts) && b.slotOf(cuts[i], k) < s {
			i++
		}
		base[s] = int32(i)
	}
	b.slotBase = base
	b.cutsPad = make([]float64, len(cuts)+2)
	copy(b.cutsPad, cuts)
	b.cutsPad[len(cuts)] = math.Inf(1)
	b.cutsPad[len(cuts)+1] = math.Inf(1)
}

// slotOf maps x (with x > cuts[0]) to its slot in [0, k-1]. Monotone
// non-decreasing in x, which is what makes the narrowed search exact.
func (b *Boundaries) slotOf(x float64, k int) int {
	s := int((x - b.slotLo) * b.slotScale)
	if s < 0 {
		s = 0
	}
	if s >= k {
		s = k - 1
	}
	return s
}

// NumBuckets returns M.
func (b Boundaries) NumBuckets() int { return len(b.cuts) + 1 }

// Cuts returns the interior cut points. Callers must not modify the
// returned slice.
func (b Boundaries) Cuts() []float64 { return b.cuts }

// Locate returns the bucket index of value x: the smallest i with
// x <= cuts[i], or M−1 if x exceeds every cut, as in step 4 of
// Algorithm 3.1. With the slot table this is O(1) on average (a table
// lookup narrows the binary search to one slot's cuts); without it,
// O(log M) binary search. Both paths return identical indices.
func (b Boundaries) Locate(x float64) int {
	cuts := b.cuts
	if b.slotBase != nil {
		if x <= cuts[0] {
			return 0
		}
		last := len(cuts) - 1
		if x > cuts[last] || math.IsNaN(x) {
			// NaN compares false everywhere, which the binary search
			// resolves to len(cuts); preserve that exactly.
			return len(cuts)
		}
		k := len(b.slotBase) - 1
		s := b.slotOf(x, k)
		// Cuts below base[s] are < x; the first cut at slot >= s+1 is
		// > x, so the answer lies in [base[s], base[s+1]] (the latter
		// clamped onto the last cut, which we know satisfies x <= cut).
		lo, hi := int(b.slotBase[s]), int(b.slotBase[s+1])
		if hi > last {
			hi = last
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if x <= cuts[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x <= cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// LocateBatch writes the bucket index of every value in col into out
// (which must have len(col)), with −1 for NaN values. It is the batch
// form of Locate with the slot-table lookup inlined and the table
// fields hoisted out of the loop: the fused 2-D counting scan locates
// every tuple once per attribute, and at that call rate the per-value
// method-call overhead of Locate is the dominant counting cost.
// Indices agree exactly with Locate (NaN aside, which Locate maps to
// the last bucket and callers filter first).
func (b Boundaries) LocateBatch(col []float64, out []int32) {
	out = out[:len(col)] // one bounds proof for both arrays
	base := b.slotBase
	if base == nil {
		for row, x := range col {
			if x != x { // NaN
				out[row] = -1
				continue
			}
			out[row] = int32(b.Locate(x))
		}
		return
	}
	cuts, pad := b.cuts, b.cutsPad
	slo, sscale := b.slotLo, b.slotScale
	nc := len(cuts)
	kslots := len(base) - 1
	cLast := cuts[nc-1]
	for row, x := range col {
		if x != x { // NaN
			out[row] = -1
			continue
		}
		if x > cLast {
			// Beyond the last cut (including +Inf, whose slot product
			// does not convert to a usable int): last bucket.
			out[row] = int32(nc)
			continue
		}
		// Clamping the slot index replaces Locate's low-side special
		// case with a conditional move: x <= cuts[0] (including −Inf)
		// clamps to slot 0, whose search range starts at cut 0. The
		// searched range and result are exactly Locate's.
		s := int((x - slo) * sscale)
		if s < 0 {
			s = 0
		}
		if s >= kslots {
			s = kslots - 1
		}
		lo, hi := int(base[s]), int(base[s+1])
		// Slots rarely hold more than two cuts (the table has 4 slots
		// per cut), so after the almost-never-taken narrowing loop the
		// answer is lo plus how many of the next two cuts x exceeds.
		// The sentinel padding makes both candidate loads safe and
		// INDEPENDENT, and the two compares are branch-free — the
		// data-dependent branch of the plain binary search was this
		// kernel's dominant mispredict cost.
		for hi-lo > 2 {
			mid := int(uint(lo+hi) >> 1)
			if x <= cuts[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		// x <= cuts[hi] (hi = nc−1 at most here, since x <= cLast) and
		// sentinels are +Inf, so overshoot past hi is impossible.
		d0, d1 := 0, 0
		if x > pad[lo] {
			d0 = 1
		}
		if x > pad[lo+1] {
			d1 = 1
		}
		out[row] = int32(lo + d0 + d1)
	}
}

// BucketRange returns the half-open value interval (lo, hi] covered by
// bucket i, using ±Inf for the outermost buckets.
func (b Boundaries) BucketRange(i int) (lo, hi float64) {
	m := b.NumBuckets()
	if i < 0 || i >= m {
		panic(fmt.Sprintf("bucketing: bucket %d out of [0,%d)", i, m))
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	if i > 0 {
		lo = b.cuts[i-1]
	}
	if i < m-1 {
		hi = b.cuts[i]
	}
	return lo, hi
}

// FromSortedSample builds boundaries for m buckets from an
// already-sorted sample, per step 3 of Algorithm 3.1: the i-th cut is
// the ⌈i·S/m⌉-th smallest sample value.
func FromSortedSample(sorted []float64, m int) (Boundaries, error) {
	if m < 1 {
		return Boundaries{}, fmt.Errorf("bucketing: bucket count %d must be positive", m)
	}
	if len(sorted) == 0 && m > 1 {
		return Boundaries{}, fmt.Errorf("bucketing: empty sample cannot define %d buckets", m)
	}
	if m == 1 {
		return Boundaries{}, nil
	}
	return NewBoundaries(stats.EquiDepthBoundaries(sorted, m))
}

// SampledBoundaries performs steps 1–3 of Algorithm 3.1 on the numeric
// attribute at schema position attr: draw an S-sized with-replacement
// random sample (S = sampleFactor·m; the paper fixes sampleFactor=40),
// sort it, and cut at the sample quantiles.
func SampledBoundaries(rel relation.Relation, attr, m, sampleFactor int, rng *rand.Rand) (Boundaries, error) {
	if sampleFactor < 1 {
		return Boundaries{}, fmt.Errorf("bucketing: sample factor %d must be positive", sampleFactor)
	}
	if m < 1 {
		return Boundaries{}, fmt.Errorf("bucketing: bucket count %d must be positive", m)
	}
	if m == 1 {
		return Boundaries{}, nil
	}
	s := m * sampleFactor
	sample, err := sampling.ColumnWithReplacement(rel, attr, s, rng)
	if err != nil {
		return Boundaries{}, err
	}
	// Missing values (NaN) carry no order information; drop them from
	// the sample so cut points stay well defined. The counting pass
	// likewise skips NaN driver values (Counts.NaNs).
	clean := sample[:0]
	for _, x := range sample {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 {
		return Boundaries{}, fmt.Errorf("bucketing: attribute %d sampled only NaN values", attr)
	}
	stats.SortFloat64s(clean)
	return FromSortedSample(clean, m)
}

// EquiWidthBoundaries cuts [lo, hi] into m equal-width buckets. The
// paper's footnote 3 argues AGAINST this scheme — on skewed data some
// equi-width bucket holds far more than 1/M of the tuples, inflating
// the approximation error — and the bucketing-scheme ablation in the
// experiments package quantifies that claim. Provided for comparison,
// not for production use.
func EquiWidthBoundaries(lo, hi float64, m int) (Boundaries, error) {
	if m < 1 {
		return Boundaries{}, fmt.Errorf("bucketing: bucket count %d must be positive", m)
	}
	if !(lo < hi) {
		return Boundaries{}, fmt.Errorf("bucketing: invalid value range [%g, %g]", lo, hi)
	}
	cuts := make([]float64, 0, m-1)
	width := (hi - lo) / float64(m)
	for i := 1; i < m; i++ {
		cuts = append(cuts, lo+width*float64(i))
	}
	return NewBoundaries(cuts)
}

// ColumnExtremes scans one numeric attribute and returns its finite
// minimum and maximum (NaNs ignored), for use with EquiWidthBoundaries.
func ColumnExtremes(rel relation.Relation, attr int) (lo, hi float64, err error) {
	lo, hi = math.Inf(1), math.Inf(-1)
	err = rel.Scan(relation.ColumnSet{Numeric: []int{attr}}, func(b *relation.Batch) error {
		for _, x := range b.Numeric[0][:b.Len] {
			if math.IsNaN(x) {
				continue
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("bucketing: attribute %d has no finite values", attr)
	}
	return lo, hi, nil
}

// DistinctValueBoundaries builds *finest* buckets (Definition 2.5): one
// bucket per distinct value of the attribute. It errors if the number
// of distinct values exceeds maxDistinct — the paper's point being that
// finest buckets are only feasible for small domains such as ages
// (Example 2.4).
func DistinctValueBoundaries(rel relation.Relation, attr, maxDistinct int) (Boundaries, error) {
	seen := make(map[float64]struct{})
	err := rel.Scan(relation.ColumnSet{Numeric: []int{attr}}, func(b *relation.Batch) error {
		for _, v := range b.Numeric[0][:b.Len] {
			if math.IsNaN(v) {
				// NaN is never equal to itself, so it can neither be a
				// distinct "value" nor a well-ordered cut point; finest
				// buckets don't apply (callers fall back to sampling,
				// exactly as the fused MultiSampledBoundarySpecs does).
				return fmt.Errorf("bucketing: attribute %d contains NaN; use equi-depth buckets instead", attr)
			}
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				if len(seen) > maxDistinct {
					return fmt.Errorf("bucketing: more than %d distinct values; use equi-depth buckets instead", maxDistinct)
				}
			}
		}
		return nil
	})
	if err != nil {
		return Boundaries{}, err
	}
	if len(seen) == 0 {
		return Boundaries{}, fmt.Errorf("bucketing: empty relation")
	}
	values := make([]float64, 0, len(seen))
	for v := range seen {
		values = append(values, v)
	}
	sort.Float64s(values)
	// Cut at every distinct value except the largest: bucket i is then
	// exactly [v_i, v_i] for observed values.
	return NewBoundaries(values[:len(values)-1])
}
