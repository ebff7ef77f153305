package bucketing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"optrule/internal/relation"
)

// multiRelation builds a relation with several numeric drivers (mixed
// scales, every 7th value of driver 1 NaN), one extra numeric target,
// and two Boolean attributes.
func multiRelation(t testing.TB, n int) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
		{Name: "T", Kind: relation.Numeric},
		{Name: "D", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		a := rng.Float64() * 100
		b := rng.NormFloat64() * 1000
		if i%7 == 0 {
			b = math.NaN()
		}
		rel.MustAppend([]float64{a, b, rng.Float64() * 10},
			[]bool{rng.Intn(3) == 0, rng.Intn(2) == 0})
	}
	return rel
}

func TestMultiSampledBoundariesMatchSampledBoundaries(t *testing.T) {
	rel := multiRelation(t, 3000)
	attrs := []int{0, 1, 3}
	const m, sf = 50, 10
	rngs := make([]*rand.Rand, len(attrs))
	for k, attr := range attrs {
		rngs[k] = rand.New(rand.NewSource(100 + int64(attr)))
	}
	got, err := MultiSampledBoundaries(rel, attrs, m, sf, 0, rngs)
	if err != nil {
		t.Fatal(err)
	}
	for k, attr := range attrs {
		rng := rand.New(rand.NewSource(100 + int64(attr)))
		want, err := SampledBoundaries(rel, attr, m, sf, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k].Cuts(), want.Cuts()) {
			t.Errorf("attr %d: fused boundaries differ from SampledBoundaries", attr)
		}
	}
}

func TestMultiSampledBoundariesExactDomains(t *testing.T) {
	// Attribute 0 has 8 distinct values (finest buckets apply);
	// attribute 1 is continuous (sampled equi-depth fallback).
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "Small", Kind: relation.Numeric},
		{Name: "Big", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		rel.MustAppend([]float64{float64(i % 8), rng.Float64()}, []bool{i%2 == 0})
	}
	attrs := []int{0, 1}
	rngs := []*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))}
	bounds, err := MultiSampledBoundaries(rel, attrs, 20, 10, 10, rngs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DistinctValueBoundaries(rel, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bounds[0].Cuts(), want.Cuts()) {
		t.Errorf("finest buckets differ: got %v want %v", bounds[0].Cuts(), want.Cuts())
	}
	if bounds[0].NumBuckets() != 8 {
		t.Errorf("finest bucket count = %d, want 8", bounds[0].NumBuckets())
	}
	wantSampled, err := SampledBoundaries(rel, 1, 20, 10, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bounds[1].Cuts(), wantSampled.Cuts()) {
		t.Errorf("large-domain attribute should fall back to sampled boundaries")
	}
}

func TestDistinctValueBoundariesRejectsNaN(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
	})
	for i := 0; i < 100; i++ {
		x := float64(i % 4)
		if i == 50 {
			x = math.NaN()
		}
		rel.MustAppend([]float64{x}, nil)
	}
	// NaN can't be a well-ordered cut point: finest buckets must be
	// refused so callers fall back to sampling, matching the fused
	// MultiSampledBoundaries tracker.
	if _, err := DistinctValueBoundaries(rel, 0, 10); err == nil {
		t.Error("NaN-bearing attribute accepted for finest buckets")
	}
}

func TestMultiSampledBoundariesSingleBucket(t *testing.T) {
	rel := multiRelation(t, 100)
	counting := &relation.CountingRelation{R: rel}
	rngs := []*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))}
	bounds, err := MultiSampledBoundaries(counting, []int{0, 1}, 1, 40, 0, rngs)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range bounds {
		if b.NumBuckets() != 1 {
			t.Errorf("attr %d: buckets = %d, want 1", k, b.NumBuckets())
		}
	}
	if counting.Scans != 0 {
		t.Errorf("single-bucket boundaries should need no scan, got %d", counting.Scans)
	}
}

// MultiSampledBoundaries runs steps 1–3 of Algorithm 3.1 for several
// numeric attributes at one resolution on the sampling pool: each
// attrs[k] gets an independent with-replacement sample of
// m·sampleFactor values driven by rngs[k] (the same stream
// SampledBoundaries would consume), and its equi-depth cut points are
// read off the sorted sample. Per-attribute results are identical to
// SampledBoundaries(rel, attrs[k], m, sampleFactor, rngs[k]).
//
// If exactDomainLimit > 0, one tracking scan draws the samples and
// each attribute's distinct value set; attributes with at most
// exactDomainLimit distinct finite values (and no NaNs) get finest
// buckets (Definition 2.5) — one bucket per distinct value — exactly
// as DistinctValueBoundaries would build, while the rest fall back to
// the sampled cut points.
func MultiSampledBoundaries(rel relation.Relation, attrs []int, m, sampleFactor, exactDomainLimit int, rngs []*rand.Rand) ([]Boundaries, error) {
	if m < 1 {
		return nil, fmt.Errorf("bucketing: bucket count %d must be positive", m)
	}
	if len(attrs) != len(rngs) {
		return nil, fmt.Errorf("bucketing: %d attributes but %d rngs", len(attrs), len(rngs))
	}
	specs := make([]BoundarySpec, len(attrs))
	for k, attr := range attrs {
		specs[k] = BoundarySpec{Attr: attr, M: m, SampleFactor: sampleFactor,
			ExactDomainLimit: exactDomainLimit}
	}
	return SampleBoundaries(rel, specs, rngs, runtime.GOMAXPROCS(0))
}
