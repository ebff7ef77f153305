package sampling

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"optrule/internal/relation"
)

func makeRelation(t testing.TB, n int) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{{Name: "X", Kind: relation.Numeric}})
	rel.Grow(n)
	for i := 0; i < n; i++ {
		rel.MustAppend([]float64{float64(i)}, nil)
	}
	return rel
}

func TestWithReplacementIndicesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx, err := WithReplacementIndices(rng, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1000 {
		t.Fatalf("got %d indices, want 1000", len(idx))
	}
	if !sort.IntsAreSorted(idx) {
		t.Errorf("indices not sorted")
	}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
	}
}

// cumulativeIndices is the two-array form of the exponential-spacings
// draw: the running sums in their own float64 array, then scaled into
// indices.
func cumulativeIndices(rng *rand.Rand, n, s int) []int {
	cum := make([]float64, s)
	total := 0.0
	for i := range cum {
		total += rng.ExpFloat64()
		cum[i] = total
	}
	total += rng.ExpFloat64()
	scale := float64(n) / total
	idx := make([]int, s)
	for i, c := range cum {
		idx[i] = min(int(c*scale), n-1)
	}
	return idx
}

// TestWithReplacementIndicesMatchesCumulativeFormula pins that keeping
// the running sums in the index array as float64 bits draws exactly
// the indices of the two-array formula, across seeds and sizes: one
// draw, fewer draws than the population, and more.
func TestWithReplacementIndicesMatchesCumulativeFormula(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, c := range []struct{ n, s int }{
			{1, 1}, {7, 1}, {1000, 1}, {1000, 10}, {10, 1000}, {1, 50}, {1 << 20, 40000},
		} {
			got, err := WithReplacementIndices(rand.New(rand.NewSource(seed)), c.n, c.s)
			if err != nil {
				t.Fatal(err)
			}
			want := cumulativeIndices(rand.New(rand.NewSource(seed)), c.n, c.s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d n=%d s=%d: indices differ from the two-array formula", seed, c.n, c.s)
			}
		}
	}
}

func TestWithReplacementIndicesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := WithReplacementIndices(rng, 0, 5); err == nil {
		t.Errorf("empty population accepted")
	}
	if _, err := WithReplacementIndices(rng, 10, -1); err == nil {
		t.Errorf("negative sample size accepted")
	}
	idx, err := WithReplacementIndices(rng, 10, 0)
	if err != nil || len(idx) != 0 {
		t.Errorf("zero sample should be empty, got %v, %v", idx, err)
	}
}

// TestPointSampleReusesBuffers draws samples of several sizes into one
// pair of dirty buffers: each must equal ColumnWithReplacement's sample
// from the same stream, and the draw must allocate nothing.
func TestPointSampleReusesBuffers(t *testing.T) {
	rel := makeRelation(t, 5000)
	idx, out := make([]int, 3000), make([]float64, 3000)
	for i := range idx {
		idx[i], out[i] = -1, math.NaN()
	}
	for _, s := range []int{3000, 0, 17, 2999} {
		seed := int64(40 + s)
		if err := PointSample(rel, 0, rand.New(rand.NewSource(seed)), idx[:s], out[:s]); err != nil {
			t.Fatal(err)
		}
		want, err := ColumnWithReplacement(rel, 0, s, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[:s], want) {
			t.Fatalf("s=%d: point sample differs from the scanned sample", s)
		}
		rng := rand.New(rand.NewSource(seed))
		if allocs := testing.AllocsPerRun(1, func() { _ = drawIndices(rng, 5000, idx[:s]) }); allocs != 0 {
			t.Errorf("s=%d: index draw made %v allocations, want 0", s, allocs)
		}
	}
	if err := PointSample(rel, 0, rand.New(rand.NewSource(1)), idx[:3], out[:4]); err == nil {
		t.Error("mismatched index and output buffers accepted")
	}
}

func TestColumnWithReplacementExactCount(t *testing.T) {
	rel := makeRelation(t, 10)
	rng := rand.New(rand.NewSource(7))
	// Oversampling a tiny relation forces many duplicate indices.
	sample, err := ColumnWithReplacement(rel, 0, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 500 {
		t.Fatalf("got %d samples, want 500", len(sample))
	}
	for _, v := range sample {
		if v < 0 || v > 9 || v != math.Trunc(v) {
			t.Fatalf("sample value %g not a valid row value", v)
		}
	}
}

func TestColumnWithReplacementSpansBatches(t *testing.T) {
	n := 3*relation.DefaultBatchSize + 5
	rel := makeRelation(t, n)
	rng := rand.New(rand.NewSource(11))
	sample, err := ColumnWithReplacement(rel, 0, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Values must match their indices (row i holds value i), so a sample
	// from late batches must include values beyond the first batch.
	maxV := 0.0
	for _, v := range sample {
		if v > maxV {
			maxV = v
		}
	}
	if maxV < float64(relation.DefaultBatchSize) {
		t.Errorf("sample never crossed the first batch; max value %g", maxV)
	}
}

func TestColumnWithReplacementUniformity(t *testing.T) {
	// Chi-squared-ish check: sampling 40x per value from 100 values
	// should hit every value and no value should be wildly off 40.
	rel := makeRelation(t, 100)
	rng := rand.New(rand.NewSource(13))
	sample, err := ColumnWithReplacement(rel, 0, 4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 100)
	for _, v := range sample {
		counts[int(v)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("value %d never sampled", i)
		}
		if c > 100 {
			t.Errorf("value %d sampled %d times; suspiciously non-uniform", i, c)
		}
	}
}

func TestColumnWithReplacementPropertyCountAndMembership(t *testing.T) {
	f := func(seed int64, nRaw, sRaw uint16) bool {
		n := int(nRaw%5000) + 1
		s := int(sRaw % 3000)
		rel := makeRelation(t, n)
		rng := rand.New(rand.NewSource(seed))
		sample, err := ColumnWithReplacement(rel, 0, s, rng)
		if err != nil || len(sample) != s {
			return false
		}
		for _, v := range sample {
			if v < 0 || v >= float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
