package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"optrule/internal/relation"
)

// twoColumnRelation has two numeric columns: X = i, Y = 2i (with every
// 9th Y value NaN), spanning several scan batches.
func twoColumnRelation(t testing.TB, n int) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
	})
	for i := 0; i < n; i++ {
		y := float64(2 * i)
		if i%9 == 0 {
			y = math.NaN()
		}
		rel.MustAppend([]float64{float64(i), y}, nil)
	}
	return rel
}

// MultiColumnWithReplacement samples several numeric attributes at one
// size s, attrs[k] from rngs[k], the way bucketing dispatches a
// sampling phase: with trackDistinct > 0, one MultiColumnRequests
// tracking scan for the whole set; without, one PointSample per
// attribute. Either way each sample is bit-identical to
// ColumnWithReplacement(rel, attrs[k], s, rngs[k]).
func MultiColumnWithReplacement(rel relation.Relation, attrs []int, s int, rngs []*rand.Rand, trackDistinct int) ([]MultiSample, error) {
	if len(attrs) != len(rngs) {
		return nil, fmt.Errorf("sampling: %d attributes but %d rngs", len(attrs), len(rngs))
	}
	if trackDistinct > 0 {
		reqs := make([]ColumnRequest, len(attrs))
		for k := range attrs {
			reqs[k] = ColumnRequest{Attr: attrs[k], S: s, Rng: rngs[k], TrackDistinct: trackDistinct}
		}
		return MultiColumnRequests(rel, reqs)
	}
	out := make([]MultiSample, len(attrs))
	for k, attr := range attrs {
		out[k].Sample = make([]float64, s)
		if err := PointSample(rel, attr, rngs[k], make([]int, s), out[k].Sample); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestMultiColumnWithReplacementMatchesSingleColumn(t *testing.T) {
	rel := twoColumnRelation(t, 20000) // > 2 batches
	attrs := []int{0, 1}
	const s = 500
	// trackDistinct 0 point-reads; 1 runs the tracking scan, whose
	// trackers overflow at once, so both drop every Distinct slice.
	for _, track := range []int{0, 1} {
		rngs := []*rand.Rand{rand.New(rand.NewSource(3)), rand.New(rand.NewSource(4))}
		got, err := MultiColumnWithReplacement(rel, attrs, s, rngs, track)
		if err != nil {
			t.Fatal(err)
		}
		for k, attr := range attrs {
			want, err := ColumnWithReplacement(rel, attr, s, rand.New(rand.NewSource(3+int64(k))))
			if err != nil {
				t.Fatal(err)
			}
			if len(got[k].Sample) != s {
				t.Fatalf("track %d attr %d: sample size %d, want %d", track, attr, len(got[k].Sample), s)
			}
			// NaN != NaN, so compare bit patterns.
			for i := range want {
				g, w := got[k].Sample[i], want[i]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("track %d attr %d: sample[%d] = %v, want %v (fused pass must be bit-identical)", track, attr, i, g, w)
				}
			}
			if got[k].Distinct != nil {
				t.Errorf("track %d attr %d: got a distinct set from an overflowing or absent tracker", track, attr)
			}
		}
	}
}

func TestMultiColumnWithReplacementDistinctTracking(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "Small", Kind: relation.Numeric},
		{Name: "Big", Kind: relation.Numeric},
		{Name: "HasNaN", Kind: relation.Numeric},
	})
	for i := 0; i < 1000; i++ {
		nan := 1.0
		if i%13 == 0 {
			nan = math.NaN()
		}
		rel.MustAppend([]float64{float64(i % 5), float64(i), nan}, nil)
	}
	rngs := []*rand.Rand{
		rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)), rand.New(rand.NewSource(3)),
	}
	got, err := MultiColumnWithReplacement(rel, []int{0, 1, 2}, 50, rngs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1, 2, 3, 4}; !reflect.DeepEqual(got[0].Distinct, want) {
		t.Errorf("small domain distinct = %v, want %v", got[0].Distinct, want)
	}
	if got[1].Distinct != nil {
		t.Errorf("large domain should overflow the tracking limit, got %v", got[1].Distinct)
	}
	if got[2].Distinct != nil {
		t.Errorf("NaN-bearing attribute must not get finest buckets, got %v", got[2].Distinct)
	}
}

func TestMultiColumnWithReplacementErrors(t *testing.T) {
	rel := twoColumnRelation(t, 10)
	if _, err := MultiColumnWithReplacement(rel, []int{0, 1}, 5, []*rand.Rand{rand.New(rand.NewSource(1))}, 0); err == nil {
		t.Error("mismatched rngs length should be rejected")
	}
	empty := relation.MustNewMemoryRelation(relation.Schema{{Name: "X", Kind: relation.Numeric}})
	if _, err := MultiColumnWithReplacement(empty, []int{0}, 5, []*rand.Rand{rand.New(rand.NewSource(1))}, 0); err == nil {
		t.Error("empty relation should be rejected")
	}
}

func TestMultiColumnWithReplacementAbortsAfterTrackersOverflow(t *testing.T) {
	// High-cardinality column: the distinct tracker overflows within the
	// first batch, after which the scan must stop as soon as all sample
	// indices are satisfied rather than reading the whole relation.
	n := 100000
	rel := twoColumnRelation(t, n)
	counting := &relation.CountingRelation{R: rel}
	rngs := []*rand.Rand{rand.New(rand.NewSource(21))}
	out, err := MultiColumnWithReplacement(counting, []int{0}, 10, rngs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Distinct != nil {
		t.Errorf("tracker should have overflowed, got %v", out[0].Distinct)
	}
	idx, err := WithReplacementIndices(rand.New(rand.NewSource(21)), n, 10)
	if err != nil {
		t.Fatal(err)
	}
	last := idx[len(idx)-1]
	// The tracker overflows inside batch 0 but is observed overflowed
	// from batch 1 on, so the scan stops at the end of the batch
	// containing the last sample index (or batch 1, whichever is later).
	bs := relation.DefaultBatchSize
	wantRows := (last/bs + 1) * bs
	if wantRows < 2*bs {
		wantRows = 2 * bs
	}
	if wantRows > n {
		wantRows = n
	}
	if counting.Rows != int64(wantRows) {
		t.Errorf("scan read %d rows, want %d (abort once trackers overflow and samples are satisfied)", counting.Rows, wantRows)
	}
}

// TestMultiColumnWithReplacementEarlyAbort pins where sampling stops
// reading: without distinct tracking the fused pass reads no row at all,
// only one point read per request, and a single-column sample scans
// exactly the rows up to its largest sampled index.
func TestMultiColumnWithReplacementEarlyAbort(t *testing.T) {
	n := 50000
	rel := twoColumnRelation(t, n)
	counting := &relation.CountingRelation{R: rel}
	rngs := []*rand.Rand{rand.New(rand.NewSource(9)), rand.New(rand.NewSource(10))}
	if _, err := MultiColumnWithReplacement(counting, []int{0, 1}, 10, rngs, 0); err != nil {
		t.Fatal(err)
	}
	if counting.Scans != 0 || counting.Rows != 0 || counting.PointReads != 2 {
		t.Errorf("fused sampling issued %d scans over %d rows and %d point reads, want 0, 0 and 2",
			counting.Scans, counting.Rows, counting.PointReads)
	}

	idx, err := WithReplacementIndices(rand.New(rand.NewSource(9)), n, 10)
	if err != nil {
		t.Fatal(err)
	}
	limit := idx[len(idx)-1] + 1
	counting = &relation.CountingRelation{R: rel}
	if _, err := ColumnWithReplacement(counting, 0, 10, rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}
	if len(counting.Ranges) != 1 || counting.Ranges[0] != [2]int{0, limit} || counting.Rows != int64(limit) {
		t.Errorf("single-column sampling scanned %v (%d rows), want [0,%d)", counting.Ranges, counting.Rows, limit)
	}
}
