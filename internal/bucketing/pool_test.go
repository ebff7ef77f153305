package bucketing

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// poolBackends returns n rows of one fixture over memory, v2, v3 and
// four mixed-format shards (v1, v2, v3, v2): A uniform with every 5th
// value NaN, B normal with +Inf every 11th and −Inf every 13th row, C
// constant, and a Boolean.
func poolBackends(t *testing.T, n int) map[string]relation.Relation {
	t.Helper()
	schema := relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Numeric},
		{Name: "D", Kind: relation.Boolean},
	}
	mem := relation.MustNewMemoryRelation(schema)
	quarters := make([]*relation.MemoryRelation, 4)
	for q := range quarters {
		quarters[q] = relation.MustNewMemoryRelation(schema)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*100, rng.NormFloat64()*1e3
		if i%5 == 0 {
			a = math.NaN()
		}
		switch {
		case i%11 == 0:
			b = math.Inf(1)
		case i%13 == 0:
			b = math.Inf(-1)
		}
		row, bools := []float64{a, b, 7}, []bool{rng.Intn(2) == 0}
		mem.MustAppend(row, bools)
		quarters[min(4*i/n, 3)].MustAppend(row, bools)
	}
	dir := t.TempDir()
	out := map[string]relation.Relation{"memory": mem}
	for name, format := range map[string]int{"v2": relation.DiskFormatV2, "v3": relation.DiskFormatV3} {
		path := filepath.Join(dir, name+".opr")
		if err := relation.ConvertFile(mem, path, format); err != nil {
			t.Fatal(err)
		}
		dr, err := relation.OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		out[name] = dr
	}
	manifest := filepath.Join(dir, "mixed.oprs")
	if err := relation.ConvertToSharded(quarters[0], manifest, 1, relation.DiskFormatV1); err != nil {
		t.Fatal(err)
	}
	for q, format := range []int{relation.DiskFormatV2, relation.DiskFormatV3, relation.DiskFormatV2} {
		if _, err := relation.AppendToSharded(manifest, quarters[q+1], relation.AppendOptions{Format: format}); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	out["sharded-mixed"] = sr
	return out
}

// specRNGs returns one fresh stream per spec, seeded by its attribute
// alone, as plan.AttrRNG seeds them: two specs of one attribute draw
// equal streams, each its own.
func specRNGs(specs []BoundarySpec) []*rand.Rand {
	rngs := make([]*rand.Rand, len(specs))
	for k, spec := range specs {
		rngs[k] = rand.New(rand.NewSource(100 + int64(spec.Attr)))
	}
	return rngs
}

// specOracle builds spec alone: finest buckets when the attribute
// qualifies, else SampledBoundaries from the spec's own stream.
func specOracle(t *testing.T, rel relation.Relation, spec BoundarySpec, rng *rand.Rand) Boundaries {
	t.Helper()
	if spec.ExactDomainLimit > 0 {
		if b, err := DistinctValueBoundaries(rel, spec.Attr, spec.ExactDomainLimit); err == nil {
			return b
		}
	}
	b, err := SampledBoundaries(rel, spec.Attr, spec.M, spec.SampleFactor, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSampleBoundariesWorkerInvariant pins that the sampling pool's
// boundaries are a function of each spec and its stream alone: at 1,
// 2, 3 and 8 workers, over memory, v2, v3 and mixed-format shards, each
// spec's boundaries equal that spec built alone. The specs cover NaN
// holes, ±Inf, a constant column, M = 1, one attribute at two
// resolutions, and a finest-bucket batch, which samples in one tracking
// scan and cuts on the pool.
func TestSampleBoundariesWorkerInvariant(t *testing.T) {
	sampled := []BoundarySpec{
		{Attr: 0, M: 16, SampleFactor: 40},
		{Attr: 1, M: 100, SampleFactor: 40},
		{Attr: 0, M: 200, SampleFactor: 40},
		{Attr: 2, M: 50, SampleFactor: 40},
		{Attr: 1, M: 1, SampleFactor: 40},
		{Attr: 2, M: 7, SampleFactor: 3},
	}
	exact := append([]BoundarySpec(nil), sampled...)
	exact[0].ExactDomainLimit = 10 // NaN holes: falls back to sampling
	exact[3].ExactDomainLimit = 10 // one distinct value: one finest bucket
	var memWant map[string][]Boundaries
	backends := poolBackends(t, 20000)
	for _, backend := range []string{"memory", "v2", "v3", "sharded-mixed"} {
		rel := backends[backend]
		wants := map[string][]Boundaries{}
		for name, specs := range map[string][]BoundarySpec{"sampled": sampled, "exact": exact} {
			want := make([]Boundaries, len(specs))
			for k, rng := range specRNGs(specs) {
				want[k] = specOracle(t, rel, specs[k], rng)
			}
			wants[name] = want
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := SampleBoundaries(rel, specs, specRNGs(specs), workers)
				if err != nil {
					t.Fatalf("%s %s workers %d: %v", backend, name, workers, err)
				}
				for k := range specs {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Errorf("%s %s workers %d: spec %d %+v: %d cuts differ from the spec built alone (%d cuts)",
							backend, name, workers, k, specs[k], len(got[k].Cuts()), len(want[k].Cuts()))
					}
				}
			}
		}
		if memWant == nil {
			memWant = wants
		} else if !reflect.DeepEqual(wants, memWant) {
			t.Errorf("%s: boundaries differ from the memory relation's", backend)
		}
	}
}

// TestSampleBoundariesReportsLowestSpecError pins the error rule: a
// failing phase reports the lowest-index failing spec's error, whichever
// worker met it first.
func TestSampleBoundariesReportsLowestSpecError(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "N", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	})
	for i := 0; i < 1000; i++ {
		rel.MustAppend([]float64{float64(i), math.NaN()}, []bool{i%2 == 0})
	}
	specs := []BoundarySpec{
		{Attr: 0, M: 10, SampleFactor: 40},
		{Attr: 1, M: 4, SampleFactor: 40},  // all NaN
		{Attr: 2, M: 50, SampleFactor: 40}, // Boolean: the point read fails
	}
	for _, workers := range []int{1, 2, 3} {
		_, err := SampleBoundaries(rel, specs, specRNGs(specs), workers)
		if err == nil || err.Error() != "bucketing: attribute 1 sampled only NaN values" {
			t.Errorf("workers %d: error %v, want spec 1's", workers, err)
		}
	}
	if _, err := SampleBoundaries(rel, specs, specRNGs(specs[:2]), 2); err == nil {
		t.Error("mismatched rngs accepted")
	}
}

// eightSpecs returns 8 specs at M = 1000, one per numeric attribute of
// a PerfShape(8, ...) relation.
func eightSpecs() []BoundarySpec {
	specs := make([]BoundarySpec, 8)
	for k := range specs {
		specs[k] = BoundarySpec{Attr: k, M: 1000, SampleFactor: 40}
	}
	return specs
}

// TestSampleBoundariesAllocatesPerWorker pins the pool's memory: 8 specs
// at M = 1000 allocate at most W sample sets (index, value and radix
// buffers of 40,000 entries each) plus every spec's cuts and locate
// table and a little bookkeeping, at W = 1 and 2. A sample set per spec
// costs 8 sets, and fails the bound.
func TestSampleBoundariesAllocatesPerWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	shape, err := datagen.NewPerfShape(8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := datagen.MustMaterialize(shape, 50000, 1)
	specs := eightSpecs()
	bounds, err := SampleBoundaries(rel, specs, specRNGs(specs), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cuts and tables: what building each spec's boundaries from its
	// cuts allocates (the copy stands in for EquiDepthBoundaries').
	var kept uint64
	for _, b := range bounds {
		kept += allocatedBytes(func() {
			if _, err := NewBoundaries(append([]float64(nil), b.Cuts()...)); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The heap rounds a buffer this large up to whole 8 KiB pages.
	const sampleSet = 3 * (8*40000 + 8191) / 8192 * 8192
	const bookkeeping = 16 << 10
	for _, workers := range []int{1, 2} {
		least := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ {
			rngs := specRNGs(specs)
			least = min(least, allocatedBytes(func() {
				if _, err := SampleBoundaries(rel, specs, rngs, workers); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if bound := uint64(workers)*sampleSet + kept + bookkeeping; least > bound {
			t.Errorf("workers %d: allocated %d B, want at most %d (%d sample sets, %d B of cuts and tables)",
				workers, least, bound, workers, kept)
		}
		t.Logf("workers %d: %d B (sample set %d B, cuts and tables %d B)", workers, least, sampleSet, kept)
	}
}

// allocatedBytes returns the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// BenchmarkSampleBoundaries times one sampling phase of 8 specs at
// M = 1000 over a 1M-row v2 file at GOMAXPROCS workers (-cpu sets W).
func BenchmarkSampleBoundaries(b *testing.B) {
	shape, err := datagen.NewPerfShape(8, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "sample.opr")
	if err := relation.ConvertFile(datagen.MustMaterialize(shape, 1000000, 1), path, relation.DiskFormatV2); err != nil {
		b.Fatal(err)
	}
	dr, err := relation.OpenDisk(path)
	if err != nil {
		b.Fatal(err)
	}
	defer dr.Close()
	specs := eightSpecs()
	rngs := specRNGs(specs)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, rng := range rngs {
			rng.Seed(int64(i*len(rngs) + k))
		}
		if _, err := SampleBoundaries(dr, specs, rngs, workers); err != nil {
			b.Fatal(fmt.Errorf("workers %d: %w", workers, err))
		}
	}
}
