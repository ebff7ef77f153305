package bucketing

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"optrule/internal/relation"
	"optrule/internal/stats"
)

func uniformRelation(t testing.TB, n int, seed int64) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(seed))
	rel.Grow(n)
	for i := 0; i < n; i++ {
		rel.MustAppend([]float64{rng.Float64() * 1e6}, []bool{rng.Intn(2) == 0})
	}
	return rel
}

func TestNewBoundariesValidation(t *testing.T) {
	if _, err := NewBoundaries([]float64{1, 2, 3}); err != nil {
		t.Errorf("sorted cuts rejected: %v", err)
	}
	if _, err := NewBoundaries([]float64{1, 1, 2}); err != nil {
		t.Errorf("ties should be allowed: %v", err)
	}
	if _, err := NewBoundaries([]float64{2, 1}); err == nil {
		t.Errorf("unsorted cuts accepted")
	}
}

func TestLocateSemantics(t *testing.T) {
	b, err := NewBoundaries([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBuckets() != 4 {
		t.Fatalf("NumBuckets = %d, want 4", b.NumBuckets())
	}
	cases := []struct {
		x    float64
		want int
	}{
		{-100, 0}, {10, 0}, // p0 < x <= p1 semantics: x == cut belongs left
		{10.0001, 1}, {20, 1},
		{25, 2}, {30, 2},
		{31, 3}, {1e12, 3},
	}
	for _, c := range cases {
		if got := b.Locate(c.x); got != c.want {
			t.Errorf("Locate(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestBucketRange(t *testing.T) {
	b, _ := NewBoundaries([]float64{10, 20})
	lo, hi := b.BucketRange(0)
	if !math.IsInf(lo, -1) || hi != 10 {
		t.Errorf("bucket 0 range = (%g, %g]", lo, hi)
	}
	lo, hi = b.BucketRange(1)
	if lo != 10 || hi != 20 {
		t.Errorf("bucket 1 range = (%g, %g]", lo, hi)
	}
	lo, hi = b.BucketRange(2)
	if lo != 20 || !math.IsInf(hi, 1) {
		t.Errorf("bucket 2 range = (%g, %g]", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range bucket should panic")
		}
	}()
	b.BucketRange(3)
}

func TestLocateAgreesWithLinearScanProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(mRaw%50) + 2
		cuts := make([]float64, m-1)
		for i := range cuts {
			cuts[i] = rng.Float64() * 100
		}
		sort.Float64s(cuts)
		b, err := NewBoundaries(cuts)
		if err != nil {
			return false
		}
		for trial := 0; trial < 50; trial++ {
			x := rng.Float64()*120 - 10
			want := 0
			for want < len(cuts) && x > cuts[want] {
				want++
			}
			if b.Locate(x) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromSortedSampleEdges(t *testing.T) {
	if _, err := FromSortedSample(nil, 2); err == nil {
		t.Errorf("empty sample accepted for m>1")
	}
	b, err := FromSortedSample(nil, 1)
	if err != nil || b.NumBuckets() != 1 {
		t.Errorf("m=1 should need no sample: %v, %d", err, b.NumBuckets())
	}
	if _, err := FromSortedSample([]float64{1}, 0); err == nil {
		t.Errorf("m=0 accepted")
	}
	// Single bucket puts everything in bucket 0.
	if b.Locate(-1e18) != 0 || b.Locate(1e18) != 0 {
		t.Errorf("single bucket should hold everything")
	}
}

func TestSampledBoundariesAlmostEquiDepth(t *testing.T) {
	n := 200000
	m := 50
	rel := uniformRelation(t, n, 1)
	rng := rand.New(rand.NewSource(2))
	bounds, err := SampledBoundaries(rel, 0, m, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bounds.NumBuckets() != m {
		t.Fatalf("NumBuckets = %d, want %d", bounds.NumBuckets(), m)
	}
	counts, err := Count(rel, 0, bounds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Section 3.2: with S = 40·M, the chance of any bucket deviating by
	// >= 50% is small; deviations of 2x the ideal depth would indicate a
	// broken sampler.
	dev := stats.DepthDeviation(counts.U)
	if dev > 0.5 {
		t.Errorf("worst bucket depth deviation %g, want <= 0.5", dev)
	}
	total := 0
	for _, u := range counts.U {
		total += u
	}
	if total != n {
		t.Errorf("bucket sizes sum to %d, want %d", total, n)
	}
}

func TestSampledBoundariesErrors(t *testing.T) {
	rel := uniformRelation(t, 100, 3)
	rng := rand.New(rand.NewSource(1))
	if _, err := SampledBoundaries(rel, 0, 10, 0, rng); err == nil {
		t.Errorf("zero sample factor accepted")
	}
	if _, err := SampledBoundaries(rel, 0, 0, 40, rng); err == nil {
		t.Errorf("zero buckets accepted")
	}
	if b, err := SampledBoundaries(rel, 0, 1, 40, rng); err != nil || b.NumBuckets() != 1 {
		t.Errorf("m=1 should succeed trivially: %v", err)
	}
}

func TestExactBoundariesPerfectlyEquiDepth(t *testing.T) {
	n, m := 1000, 10
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(n - i) // reversed; ExactBoundaries must sort
	}
	bounds, err := ExactBoundaries(col, m)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, m)
	for _, v := range col {
		sizes[bounds.Locate(v)]++
	}
	for i, s := range sizes {
		if s != n/m {
			t.Errorf("bucket %d size %d, want %d", i, s, n/m)
		}
	}
}

func TestDistinctValueBoundariesFinest(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{{Name: "Age", Kind: relation.Numeric}})
	ages := []float64{30, 20, 20, 40, 30, 30}
	for _, a := range ages {
		rel.MustAppend([]float64{a}, nil)
	}
	bounds, err := DistinctValueBoundaries(rel, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if bounds.NumBuckets() != 3 {
		t.Fatalf("NumBuckets = %d, want 3 (distinct values)", bounds.NumBuckets())
	}
	// Each distinct value must land in its own bucket.
	if bounds.Locate(20) == bounds.Locate(30) || bounds.Locate(30) == bounds.Locate(40) {
		t.Errorf("distinct values share buckets: 20->%d 30->%d 40->%d",
			bounds.Locate(20), bounds.Locate(30), bounds.Locate(40))
	}
	// Cap enforcement.
	if _, err := DistinctValueBoundaries(rel, 0, 2); err == nil {
		t.Errorf("distinct-value cap not enforced")
	}
	empty := relation.MustNewMemoryRelation(relation.Schema{{Name: "Age", Kind: relation.Numeric}})
	if _, err := DistinctValueBoundaries(empty, 0, 10); err == nil {
		t.Errorf("empty relation accepted")
	}
}

// ExactBoundaries computes perfectly equi-depth boundaries by sorting a
// full copy of the column. This is the non-approximate reference that
// the Naive Sort and Vertical Split Sort baselines reduce to once the
// column is in memory.
func ExactBoundaries(column []float64, m int) (Boundaries, error) {
	sorted := stats.SortedCopy(column)
	return FromSortedSample(sorted, m)
}

// TestBoundariesSizeBytes checks SizeBytes against a hand count on
// amd64: a 32-byte Boundaries header (cuts slice, table pointer), 8
// bytes per cut, and with any cut a 128-byte table header plus 4 bytes
// per slot-table entry, 8 per distinct cut and sentinel, and 4 per
// first-index entry.
func TestBoundariesSizeBytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("hand count is for 64-bit words")
	}
	seq := func(n int, rep int) []float64 {
		cuts := make([]float64, n)
		for i := range cuts {
			cuts[i] = float64(1 + i/rep)
		}
		return cuts
	}
	for _, c := range []struct {
		name string
		cuts []float64
		want int64
	}{
		// No table without cuts.
		{"one bucket", nil, 32},
		// 100 distinct cuts, linear frame, 400 slots, no first-index map:
		// 32 + 100·8 + 128 + 401·4 + 102·8.
		{"distinct", seq(100, 1), 32 + 800 + 128 + 1604 + 816},
		// 5 values × 20: 20 slots, 5 distinct cuts, first-index map:
		// 32 + 100·8 + 128 + 21·4 + 7·8 + 6·4.
		{"duplicates", seq(100, 20), 32 + 800 + 128 + 84 + 56 + 24},
	} {
		b, err := NewBoundaries(c.cuts)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.SizeBytes(); got != c.want {
			t.Errorf("%s: SizeBytes = %d, want %d", c.name, got, c.want)
		}
	}
}
