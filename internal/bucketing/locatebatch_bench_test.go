package bucketing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"optrule/internal/stats"
)

// locateDist is a named column shape: gen draws one value.
type locateDist struct {
	name string
	gen  func(*rand.Rand) float64
}

// locateDists are the column shapes the locate benchmarks and property
// tests draw from: Balance's skewed default, a uniform column, Age's 73
// integers (duplicate cuts once M exceeds 73) and a zero-centred normal
// (mixed signs, dense around zero).
var locateDists = []locateDist{
	{"lognormal", func(r *rand.Rand) float64 { return math.Exp(8 + 1.2*r.NormFloat64()) }},
	{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 1000 }},
	{"int73", func(r *rand.Rand) float64 { return float64(18 + r.Intn(73)) }},
	{"normal", func(r *rand.Rand) float64 { return r.NormFloat64() * 100 }},
}

// BenchmarkLocateBatch measures the counting scan's bucket kernel in
// isolation, per column shape: 1Mi lookups against M equi-depth cuts
// sampled as Algorithm 3.1 does (40·M sampled values), at M = 1000 and
// at the M of a side-64 and a side-16 grid axis. It reports ns/value.
func BenchmarkLocateBatch(b *testing.B) {
	for _, d := range locateDists {
		for _, m := range []int{1000, 64, 16} {
			b.Run(fmt.Sprintf("%s/M=%d", d.name, m), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				sample := make([]float64, 40*m)
				for i := range sample {
					sample[i] = d.gen(rng)
				}
				stats.SortFloat64s(sample)
				bd, err := FromSortedSample(sample, m)
				if err != nil {
					b.Fatal(err)
				}
				col := make([]float64, 1<<20)
				for i := range col {
					col[i] = d.gen(rng)
				}
				out := make([]int32, len(col))
				b.SetBytes(int64(len(col)) * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bd.LocateBatch(col, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(col)), "ns/value")
			})
		}
	}
}
