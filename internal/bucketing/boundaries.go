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
	"unsafe"

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
	// loc is the locate table Locate and LocateBatch share; nil only
	// without cuts (one bucket).
	loc *locateTable
}

// locateTable narrows a locate to one slot of an equi-width slot table
// laid over the distinct cuts in a monotone frame of x, fitted at build
// time to the cuts (see buildLocateIndex). The linear frame maps x to
// (x−lo)·scale; the key frame maps x to (key(x+0)−klo)>>shift, where
// key is the order-preserving bit key stats.SortFloat64s sorts by, so
// its slots are equi-width in each binade and a skewed column's cuts
// spread over them. Both maps are monotone, so the narrowed search
// returns exactly the plain binary search's index.
type locateTable struct {
	keyed bool
	// last is the last cut: a value above it is in the last bucket.
	last float64
	// Linear frame: slot count, origin and scale.
	k         int
	lo, scale float64
	// Key frame: the key of the first distinct cut and the slot width
	// as a shift.
	klo   uint64
	shift uint
	// base[s] is the first distinct cut whose slot is >= s, for s in
	// [0, slots]; a lookup in slot s searches distinct cuts
	// [base[s], base[s+1]].
	base []int32
	// pad is the distinct cuts followed by two +Inf sentinels, so the
	// final two-candidate refinement loads both candidate cuts
	// unconditionally (independent loads instead of a dependent chain).
	pad []float64
	// first[j] is the first cut index equal to distinct cut j, and
	// first[len(pad)−2] is len(cuts). Nil when the cuts are distinct and
	// the frame is linear: a distinct index is then a cut index.
	first []int32
}

// slotsPerCut is the slot table's target size per distinct cut.
const slotsPerCut = 4

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

// buildLocateIndex builds the locate table. Counting spends most of its
// CPU locating (one lookup per tuple per driver), so an O(1)
// average-case locate is what lets the scan itself dominate the
// counting pass, as the paper's out-of-core cost model assumes.
//
// The table indexes the distinct cuts (−0 and +0 are one cut) and maps
// each back to its first cut index, so a column with few values and
// many buckets searches its values, not its repeated cuts. Of the two
// frames it keeps the one that leaves fewer distinct cuts per slot,
// weighted by rows: equi-depth cuts each stand for an equal share of
// the rows, so the cut density stands in for the row density and no
// data is needed. The linear frame wins ties and needs a finite,
// non-empty cut span; the key frame always applies.
func (b *Boundaries) buildLocateIndex() {
	cuts := b.cuts
	if len(cuts) == 0 {
		return
	}
	nu := 1
	for i := 1; i < len(cuts); i++ {
		if cuts[i] != cuts[i-1] {
			nu++
		}
	}
	t := &locateTable{last: cuts[len(cuts)-1], keyed: true}

	// Key frame: the narrowest power-of-two slot width that keeps the
	// table within slotsPerCut slots per distinct cut.
	t.klo = floatKey(cuts[0])
	for (floatKey(t.last)-t.klo)>>t.shift >= uint64(slotsPerCut*nu) {
		t.shift++
	}
	slot := func(x float64) int { return keySlot(x, t.klo, t.shift) }
	nslots := slot(t.last) + 1

	// Linear frame, when the span allows it and it is at least as good.
	k, lo, span := slotsPerCut*nu, cuts[0], t.last-cuts[0]
	if scale := float64(k) / span; span > 0 && !math.IsInf(span, 0) && !math.IsInf(scale, 0) {
		lin := func(x float64) int { return linearSlot(x, lo, scale, k) }
		if rowCost(cuts, lin) <= rowCost(cuts, slot) {
			slot, nslots = lin, k
			t.keyed, t.k, t.lo, t.scale = false, k, lo, scale
		}
	}

	// One pass over the distinct cuts fills pad, first and base, where
	// base[s] is the first distinct cut whose slot is >= s.
	pad := make([]float64, 0, nu+2)
	var first []int32
	if t.keyed || nu < len(cuts) {
		first = make([]int32, 0, nu+1)
	}
	base := make([]int32, nslots+1)
	s := 0
	for i, c := range cuts {
		if i > 0 && c == cuts[i-1] {
			continue
		}
		for cs := slot(c); s <= cs; s++ {
			base[s] = int32(len(pad))
		}
		pad = append(pad, c)
		if first != nil {
			first = append(first, int32(i))
		}
	}
	for ; s <= nslots; s++ {
		base[s] = int32(nu)
	}
	t.base = base
	t.pad = append(pad, math.Inf(1), math.Inf(1))
	if first != nil {
		t.first = append(first, int32(len(cuts)))
	}
	b.loc = t
}

// rowCost is a frame's distinct cuts per slot weighted by rows, up to a
// constant factor: each cut carries an equal share of the rows, and a
// row in a slot searches that slot's distinct cuts.
func rowCost(cuts []float64, slot func(float64) int) int64 {
	var cost int64
	for i := 0; i < len(cuts); {
		s, distinct, e := slot(cuts[i]), 1, i+1
		for ; e < len(cuts) && slot(cuts[e]) == s; e++ {
			if cuts[e] != cuts[e-1] {
				distinct++
			}
		}
		cost += int64(e-i) * int64(distinct)
		i = e
	}
	return cost
}

// floatKey is the order-preserving bit key of x: flip every bit of a
// negative, only the sign bit of a non-negative. Callers key x+0, which
// turns −0 into +0, so equal floats get equal keys.
func floatKey(x float64) uint64 {
	u := math.Float64bits(x + 0)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// keySlot maps x <= the last cut to its key-frame slot: its key,
// raised to at least klo (so x below the first cut, −Inf included,
// lands in slot 0), offset and shifted. Monotone non-decreasing in x.
func keySlot(x float64, klo uint64, shift uint) int {
	k := floatKey(x)
	if k < klo {
		k = klo
	}
	return int((k - klo) >> (shift & 63))
}

// linearSlot maps x <= the last cut to its linear-frame slot in [0, k).
// Clamping replaces a low-side special case with a conditional move:
// x below the first cut (including −Inf, whose product converts to the
// minimum int) lands in slot 0. Monotone non-decreasing in x.
func linearSlot(x, lo, scale float64, k int) int {
	s := int((x - lo) * scale)
	if s < 0 {
		s = 0
	}
	if s >= k {
		s = k - 1
	}
	return s
}

// searchSlot returns the first distinct cut index j in [lo, hi] with
// x <= pad[j], given that every cut below lo is < x and that x <=
// pad[hi] (hi may be the first sentinel). Slots rarely hold more than
// two cuts (the table has slotsPerCut slots per cut), so after the
// almost-never-taken narrowing loop the answer is lo plus how many of
// the next two cuts x exceeds. The sentinels make both candidate loads
// safe and INDEPENDENT, and the two compares are branch-free — the
// data-dependent branch of the plain binary search was this kernel's
// dominant mispredict cost.
func searchSlot(pad []float64, lo, hi int, x float64) int {
	for hi-lo > 2 {
		mid := int(uint(lo+hi) >> 1)
		if x <= pad[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	d0, d1 := 0, 0
	if x > pad[lo] {
		d0 = 1
	}
	if x > pad[lo+1] {
		d1 = 1
	}
	return lo + d0 + d1
}

// NumBuckets returns M.
func (b Boundaries) NumBuckets() int { return len(b.cuts) + 1 }

// Cuts returns the interior cut points. Callers must not modify the
// returned slice.
func (b Boundaries) Cuts() []float64 { return b.cuts }

// SizeBytes returns the memory b holds: its header, the cuts and the
// locate table (slot, distinct-cut and first-index arrays).
func (b Boundaries) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(b)) + 8*int64(cap(b.cuts))
	if t := b.loc; t != nil {
		n += int64(unsafe.Sizeof(*t)) + 4*int64(cap(t.base)) + 8*int64(cap(t.pad)) + 4*int64(cap(t.first))
	}
	return n
}

// Locate returns the bucket index of value x: the smallest i with
// x <= cuts[i], or M−1 if x exceeds every cut (or is NaN), as in step 4
// of Algorithm 3.1. The locate table makes this O(1) on average, with
// exactly the plain binary search's result.
func (b Boundaries) Locate(x float64) int {
	t := b.loc
	if t == nil || x != x || x > t.last {
		return len(b.cuts) // one bucket, NaN, or past the last cut
	}
	var s int
	if t.keyed {
		s = keySlot(x, t.klo, t.shift)
	} else {
		s = linearSlot(x, t.lo, t.scale, t.k)
	}
	j := searchSlot(t.pad, int(t.base[s]), int(t.base[s+1]), x)
	if t.first == nil {
		return j
	}
	return int(t.first[j])
}

// LocateBatch writes the bucket index of every value in col into out
// (which must have len(col)), with −1 for NaN values. It is the batch
// form of Locate with the table fields hoisted out of the loop and one
// loop per table shape, so no row branches on the frame: the counting
// scan locates every tuple once per attribute, and at that call rate
// the per-value overhead of Locate is the dominant counting cost.
// Indices agree exactly with Locate (NaN aside, which Locate maps to
// the last bucket and callers filter first).
func (b Boundaries) LocateBatch(col []float64, out []int32) {
	out = out[:len(col)] // one bounds proof for both arrays
	t := b.loc
	if t == nil { // one bucket
		for row, x := range col {
			out[row] = 0
			if x != x { // NaN
				out[row] = -1
			}
		}
		return
	}
	base, pad, first := t.base, t.pad, t.first
	nc, last := int32(len(b.cuts)), t.last
	switch {
	case t.keyed:
		klo, shift := t.klo, t.shift
		for row, x := range col {
			if x != x { // NaN
				out[row] = -1
				continue
			}
			if x > last {
				out[row] = nc
				continue
			}
			s := keySlot(x, klo, shift)
			out[row] = first[searchSlot(pad, int(base[s]), int(base[s+1]), x)]
		}
	case first != nil:
		lo, scale, k := t.lo, t.scale, t.k
		for row, x := range col {
			if x != x { // NaN
				out[row] = -1
				continue
			}
			if x > last {
				out[row] = nc
				continue
			}
			s := linearSlot(x, lo, scale, k)
			out[row] = first[searchSlot(pad, int(base[s]), int(base[s+1]), x)]
		}
	default:
		// Distinct cuts in the linear frame: distinct indices are cut
		// indices, so no first-index load.
		lo, scale, k := t.lo, t.scale, t.k
		for row, x := range col {
			if x != x { // NaN
				out[row] = -1
				continue
			}
			if x > last {
				// Beyond the last cut (including +Inf, whose slot
				// product does not convert to a usable int): last bucket.
				out[row] = nc
				continue
			}
			s := linearSlot(x, lo, scale, k)
			out[row] = int32(searchSlot(pad, int(base[s]), int(base[s+1]), x))
		}
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
				// exactly as SampleBoundaries does).
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
