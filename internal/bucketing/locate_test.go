package bucketing

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"optrule/internal/stats"
)

// referenceLocate is the plain binary search the slot-table fast path
// must agree with exactly.
func referenceLocate(cuts []float64, x float64) int {
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

// TestLocateBatchMatchesLocate pins the batch kernel (clamped-slot
// variant, used by the fused 2-D counting scan) to Locate exactly,
// with NaN mapping to −1.
func TestLocateBatchMatchesLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	gens := []func() float64{
		func() float64 { return rng.Float64() * 1000 },
		func() float64 { return math.Exp(rng.NormFloat64()) },
		func() float64 { return float64(rng.Intn(30)) },
	}
	for gi, gen := range gens {
		for _, m := range []int{1, 2, 15, 16, 63, 255, 1000} {
			cuts := make([]float64, m)
			for i := range cuts {
				cuts[i] = gen()
			}
			sort.Float64s(cuts)
			b, err := NewBoundaries(cuts)
			if err != nil {
				t.Fatal(err)
			}
			col := []float64{math.Inf(-1), math.Inf(1), math.NaN(), cuts[0], cuts[m-1]}
			for _, c := range cuts {
				col = append(col, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
			}
			for i := 0; i < 3000; i++ {
				col = append(col, gen())
			}
			out := make([]int32, len(col))
			b.LocateBatch(col, out)
			for i, x := range col {
				want := int32(b.Locate(x))
				if math.IsNaN(x) {
					want = -1
				}
				if out[i] != want {
					t.Fatalf("gen %d m=%d: LocateBatch(%v) = %d, want %d", gi, m, x, out[i], want)
				}
			}
		}
	}
}

func TestLocateIndexMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	shapes := []func() float64{
		func() float64 { return rng.Float64() * 1000 },        // uniform
		func() float64 { return rng.NormFloat64() * 50 },      // gaussian
		func() float64 { return math.Exp(rng.NormFloat64()) }, // lognormal, heavy skew
		func() float64 { return float64(rng.Intn(40)) },       // heavy duplicates
		func() float64 { return rng.Float64()*1e-9 + 1e9 },    // tiny span at offset
	}
	for si, gen := range shapes {
		for _, m := range []int{1, 2, 15, 16, 17, 100, 1000} {
			cuts := make([]float64, m)
			for i := range cuts {
				cuts[i] = gen()
			}
			sort.Float64s(cuts)
			b, err := NewBoundaries(cuts)
			if err != nil {
				t.Fatal(err)
			}
			// Probe the exact cut values, their neighborhoods, extremes,
			// and random draws.
			probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), cuts[0], cuts[m-1]}
			for _, c := range cuts {
				probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
			}
			for i := 0; i < 2000; i++ {
				probes = append(probes, gen())
			}
			for _, x := range probes {
				got := b.Locate(x)
				want := referenceLocate(cuts, x)
				if got != want {
					t.Fatalf("shape %d m=%d: Locate(%v) = %d, want %d", si, m, x, got, want)
				}
			}
		}
	}
}

func TestNewBoundariesRejectsNaNCuts(t *testing.T) {
	cuts := make([]float64, 20)
	for i := range cuts {
		cuts[i] = float64(i)
	}
	cuts[10] = math.NaN()
	// NaN slips past a pure sortedness check (all its comparisons are
	// false) and would poison the slot table; it must be rejected.
	if _, err := NewBoundaries(cuts); err == nil {
		t.Error("NaN cut accepted")
	}
}

func TestLocateDegenerateSpans(t *testing.T) {
	// All-equal cuts and infinite spans must fall back to binary search.
	equal := make([]float64, 64)
	for i := range equal {
		equal[i] = 42
	}
	b, err := NewBoundaries(equal)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{41, 42, 43, math.NaN()} {
		if got, want := b.Locate(x), referenceLocate(equal, x); got != want {
			t.Errorf("equal cuts: Locate(%v) = %d, want %d", x, got, want)
		}
	}
	inf := make([]float64, 64)
	for i := range inf {
		inf[i] = float64(i)
	}
	inf[0] = math.Inf(-1)
	inf[63] = math.Inf(1)
	b, err = NewBoundaries(inf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1e300, 0, 31.5, 1e300, math.Inf(1)} {
		if got, want := b.Locate(x), referenceLocate(inf, x); got != want {
			t.Errorf("inf cuts: Locate(%v) = %d, want %d", x, got, want)
		}
	}
}

// TestLocateFramesMatchSearch is the locate table's property test:
// LocateBatch == Locate == a sort.Search reference on every probe, for
// equi-depth cuts sampled (as Algorithm 3.1 does) from lognormal,
// uniform, integer, mixed-sign, signed-zero, subnormal, infinity-heavy
// and NaN-holed columns, and for hand-built all-equal, duplicate-run,
// infinite and subnormal-cluster cuts, at M ∈ {1, 2, 15, 16, 17, 64,
// 1000}. Probes are column draws, every cut and one ulp either side,
// ±0, ±Inf, NaN and the extremes. It also checks that every table shape
// (none for M = 1, the key frame, the linear frame with and without the
// first-index map) was exercised.
func TestLocateFramesMatchSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	cols := append(append([]locateDist{}, locateDists...),
		locateDist{"signed-zero", func(r *rand.Rand) float64 {
			switch r.Intn(4) {
			case 0:
				return negZero
			case 1:
				return 0
			}
			return r.NormFloat64() * 1e-300
		}},
		locateDist{"subnormal", func(r *rand.Rand) float64 {
			if r.Intn(5) == 0 {
				return negZero
			}
			return tiny * float64(r.Intn(101)-50)
		}},
		locateDist{"inf-heavy", func(r *rand.Rand) float64 {
			switch r.Intn(5) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return math.Exp(8 + 1.2*r.NormFloat64())
		}},
		locateDist{"nan-holes", func(r *rand.Rand) float64 {
			if r.Intn(5) == 0 {
				return math.NaN()
			}
			return r.NormFloat64()
		}},
	)
	type cutSet struct {
		name string
		cuts []float64
		gen  func(*rand.Rand) float64
	}
	var sets []cutSet
	for _, m := range []int{1, 2, 15, 16, 17, 64, 1000} {
		for _, c := range cols {
			sample := make([]float64, 0, 40*m)
			for len(sample) < 40*m {
				if x := c.gen(rng); !math.IsNaN(x) {
					sample = append(sample, x)
				}
			}
			stats.SortFloat64s(sample)
			b, err := FromSortedSample(sample, m)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, cutSet{fmt.Sprintf("%s/M=%d", c.name, m), b.Cuts(), c.gen})
		}
		n := m - 1
		equal := make([]float64, n)
		runs := make([]float64, 0, n)
		infs := make([]float64, n)
		cluster := make([]float64, n)
		for i := range equal {
			equal[i] = 42
			infs[i] = float64(i)
			cluster[i] = tiny * float64(i-n/2)
		}
		for v := -3.0; len(runs) < n; v += 0.5 {
			for k := 1 + rng.Intn(30); k > 0 && len(runs) < n; k-- {
				runs = append(runs, v)
			}
		}
		for i := 0; i < n/4+1 && i < n; i++ {
			infs[i] = math.Inf(-1)
			infs[n-1-i] = math.Inf(1)
		}
		if n > 0 {
			cluster[n/2] = negZero // sorts before the +0 cut next to it
		}
		if n > 1 {
			cluster[n/2+1] = 0
			sort.Float64s(cluster[n/2+2:])
		}
		gen := func(r *rand.Rand) float64 { return tiny * float64(r.Intn(2*n+3)-n-1) }
		sets = append(sets,
			cutSet{fmt.Sprintf("all-equal/M=%d", m), equal, func(r *rand.Rand) float64 { return 41 + 2*r.Float64() }},
			cutSet{fmt.Sprintf("duplicate-runs/M=%d", m), runs, func(r *rand.Rand) float64 { return float64(r.Intn(20)-8) / 2 }},
			cutSet{fmt.Sprintf("infinite/M=%d", m), infs, func(r *rand.Rand) float64 { return r.Float64() * float64(n) }},
			cutSet{fmt.Sprintf("subnormal-cluster/M=%d", m), cluster, gen},
		)
	}
	shapes := map[string]int{}
	for _, cs := range sets {
		b, err := NewBoundaries(cs.cuts)
		if err != nil {
			t.Fatalf("%s: %v", cs.name, err)
		}
		switch tb := b.loc; {
		case tb == nil:
			shapes["no cuts"]++
		case tb.keyed:
			shapes["key frame"]++
		case tb.first != nil:
			shapes["linear frame, first-index map"]++
		default:
			shapes["linear frame, distinct cuts"]++
		}
		probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), negZero, 0, tiny, -tiny,
			math.MaxFloat64, -math.MaxFloat64}
		for _, c := range cs.cuts {
			probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
		for i := 0; i < 2000; i++ {
			probes = append(probes, cs.gen(rng))
		}
		out := make([]int32, len(probes))
		b.LocateBatch(probes, out)
		for i, x := range probes {
			want := sort.Search(len(cs.cuts), func(j int) bool { return x <= cs.cuts[j] })
			if got := b.Locate(x); got != want {
				t.Fatalf("%s: Locate(%v) = %d, want %d", cs.name, x, got, want)
			}
			if math.IsNaN(x) {
				want = -1
			}
			if int(out[i]) != want {
				t.Fatalf("%s: LocateBatch(%v) = %d, want %d", cs.name, x, out[i], want)
			}
		}
	}
	for _, s := range []string{"no cuts", "key frame", "linear frame, first-index map", "linear frame, distinct cuts"} {
		if shapes[s] == 0 {
			t.Errorf("no cut set built the %s table shape", s)
		}
	}
	t.Logf("table shapes: %v", shapes)
}
