package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSortFloat64sMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gens := []func() float64{
		func() float64 { return rng.Float64()*2e6 - 1e6 },
		func() float64 { return rng.NormFloat64() * 1e-9 },
		func() float64 { return float64(rng.Intn(10)) },
		func() float64 { return math.Exp(rng.NormFloat64() * 20) }, // huge dynamic range
	}
	sizes := []int{0, 1, 100, 511, 512, 513, 40000}
	for gi, gen := range gens {
		for _, n := range sizes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen()
			}
			if n > 2 {
				xs[0], xs[1], xs[2] = math.Inf(-1), math.Inf(1), math.Copysign(0, -1)
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			SortFloat64s(xs)
			for i := range xs {
				if xs[i] != want[i] && !(xs[i] == 0 && want[i] == 0) {
					t.Fatalf("gen %d n=%d: [%d] = %v, want %v", gi, n, i, xs[i], want[i])
				}
			}
		}
	}
	t.Run("special_keys", checkSpecialKeys)
}

// checkSpecialKeys sorts values whose radix keys are NaN bit patterns
// — −0 and the negative subnormals — beside ±Inf, +0, positive
// subnormals, the normal extremes and NaNs of both signs. The keys pass
// through xs as float64 values, so the result must match the IEEE-754
// total order bit for bit: sort.Float64s's order, with −0 before +0 and
// NaNs placed by their bits.
func checkSpecialKeys(t *testing.T) {
	special := []float64{
		math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
		-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<63 | 0x000f_ffff_ffff_ffff), // largest negative subnormal
		math.Float64frombits(1<<63 | 0x0000_0000_dead_beef),
		math.Float64frombits(0x0008_0000_0000_0000), // positive subnormal
		-math.MaxFloat64, math.MaxFloat64, -1, 1,
		math.NaN(), math.Float64frombits(1<<63 | 0x7ff8_0000_0000_0001), // NaNs of both signs
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
	}
	// key is the IEEE-754 total order as an unsigned integer.
	key := func(x float64) uint64 {
		b := math.Float64bits(x)
		if b&(1<<63) != 0 {
			return ^b
		}
		return b | 1<<63
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{600, 4000} {
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(2) == 0 {
				xs[i] = special[rng.Intn(len(special))]
			} else {
				// Subnormals of either sign, whose negatives key to NaNs.
				xs[i] = math.Float64frombits(uint64(rng.Intn(2))<<63 | uint64(rng.Int63n(1<<52)))
			}
		}
		want := append([]float64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
		SortFloat64s(xs)
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: [%d] = %#x, want %#x", n, i, math.Float64bits(xs[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestSortFloat64sBufReusesScratch sorts slices of several lengths with
// one dirty scratch buffer, longer than most of them, and requires
// SortFloat64s's result bit for bit and no allocation.
func TestSortFloat64sBufReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	buf := make([]float64, 5000)
	for i := range buf {
		buf[i] = math.NaN()
	}
	for _, n := range []int{5000, 0, 511, 512, 2600, 40} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64()*5) - 3
		}
		want := append([]float64(nil), xs...)
		SortFloat64s(want)
		if allocs := testing.AllocsPerRun(1, func() { SortFloat64sBuf(xs, buf) }); n >= radixSortMin && allocs != 0 {
			t.Errorf("n=%d: %v allocations, want 0", n, allocs)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: [%d] = %v, want %v", n, i, xs[i], want[i])
			}
		}
	}
}

func BenchmarkSortFloat64sRadix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 40000)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	xs := make([]float64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		SortFloat64s(xs)
	}
}

func BenchmarkSortFloat64sStdlib(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 40000)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	xs := make([]float64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		sort.Float64s(xs)
	}
}

// sortFloat64sTwoPass is the radix sort as it stood before its byte
// histograms were counted in one pass: each byte's pass counts its own
// histogram, then scatters. TestSortFloat64sMatchesTwoPassRadix pins
// SortFloat64sBuf to its output bits.
func sortFloat64sTwoPass(xs []float64) {
	if len(xs) < radixSortMin {
		sort.Float64s(xs)
		return
	}
	for i, x := range xs {
		b := math.Float64bits(x)
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		xs[i] = math.Float64frombits(b)
	}
	keys, buf := xs, make([]float64, len(xs))
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range keys {
			counts[(math.Float64bits(k)>>shift)&0xff]++
		}
		if counts[(math.Float64bits(keys[0])>>shift)&0xff] == len(keys) {
			continue
		}
		pos := 0
		for i, c := range counts {
			counts[i] = pos
			pos += c
		}
		for _, k := range keys {
			b := (math.Float64bits(k) >> shift) & 0xff
			buf[counts[b]] = k
			counts[b]++
		}
		keys, buf = buf, keys
	}
	for i, x := range keys {
		k := math.Float64bits(x)
		if k&(1<<63) != 0 {
			k &^= 1 << 63
		} else {
			k = ^k
		}
		xs[i] = math.Float64frombits(k)
	}
}

// TestSortFloat64sMatchesTwoPassRadix sorts inputs mixing ±0, ±Inf,
// subnormals of both signs, NaNs with distinct payloads and signs, and
// ordinary values, at lengths around the radix cutoff and with inputs
// whose keys share bytes (constant-digit passes skipped), and requires
// the two-pass radix sort's output bit for bit.
func TestSortFloat64sMatchesTwoPassRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	special := []float64{
		math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), math.Float64frombits(1<<63 | 0x000f_ffff_ffff_ffff),
		math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff8_0000_0000_0042),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff0_0000_0000_0007),
		-math.MaxFloat64, math.MaxFloat64,
	}
	gens := map[string]func() float64{
		"mixed": func() float64 {
			switch rng.Intn(4) {
			case 0:
				return special[rng.Intn(len(special))]
			case 1:
				return math.Float64frombits(uint64(rng.Intn(2))<<63 | uint64(rng.Int63n(1<<52)))
			case 2:
				return math.Float64frombits(0x7ff0_0000_0000_0000 | uint64(rng.Intn(2))<<63 | uint64(1+rng.Int63n(1<<52-1)))
			default:
				return rng.NormFloat64() * 1e3
			}
		},
		"shared_bytes": func() float64 { return float64(rng.Intn(300)) }, // high bytes constant
		"one_value":    func() float64 { return -0.5 },
	}
	for name, gen := range gens {
		for _, n := range []int{511, 512, 513, 4096, 40000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen()
			}
			want := append([]float64(nil), xs...)
			sortFloat64sTwoPass(want)
			SortFloat64sBuf(xs, make([]float64, n))
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d: [%d] = %#x, want %#x", name, n, i, math.Float64bits(xs[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}
