package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForceEffective checks the definition directly: s is effective
// iff avg(j, s−1) < θ for every j < s.
func bruteForceEffective(u []int, v []float64, theta float64) []int {
	f := gainPrefix(u, v, theta, nil)
	var eff []int
	for s := 0; s < len(u); s++ {
		effective := true
		for j := 0; j < s; j++ {
			if f[s]-f[j] >= 0 {
				effective = false
				break
			}
		}
		if effective {
			eff = append(eff, s)
		}
	}
	return eff
}

func TestEffectiveIndicesMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		m := 1 + rng.Intn(20)
		u, v := randomBuckets(rng, m, 8)
		theta := float64(rng.Intn(100)) / 100
		got, err := EffectiveIndices(u, v, theta)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceEffective(u, v, theta)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v, want %v (u=%v v=%v θ=%g)", trial, got, want, u, v, theta)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestEffectiveIndicesAlwaysIncludesZero(t *testing.T) {
	eff, err := EffectiveIndices([]int{5}, []float64{5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff) != 1 || eff[0] != 0 {
		t.Errorf("eff = %v, want [0]", eff)
	}
}

func TestOptimalSupportPairTinyCases(t *testing.T) {
	// Single bucket above threshold.
	p, ok, err := OptimalSupportPair([]int{10}, []float64{6}, 0.5)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if p.S != 0 || p.T != 0 || p.Count != 10 {
		t.Errorf("pair = %+v", p)
	}
	// Single bucket below threshold.
	if _, ok, _ := OptimalSupportPair([]int{10}, []float64{4}, 0.5); ok {
		t.Errorf("below-threshold single bucket should fail")
	}
	// Validation errors propagate.
	if _, _, err := OptimalSupportPair([]int{0}, []float64{0}, 0.5); err == nil {
		t.Errorf("empty bucket accepted")
	}
}

func TestOptimalSupportPairExpandsAroundCore(t *testing.T) {
	// A strong center lets weak neighbours ride along: buckets of 10
	// with hits 0, 4, 10, 10, 4, 0 and θ=0.5. The best confident range
	// is [1,4]: (4+10+10+4)/40 = 0.7 >= 0.5; adding either end bucket
	// drops below 0.5 ((28)/50 = 0.56 — actually still >= 0.5!).
	u := []int{10, 10, 10, 10, 10, 10}
	v := []float64{0, 4, 10, 10, 4, 0}
	p, ok, err := OptimalSupportPair(u, v, 0.5)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Full range: 28/60 = 0.466 < 0.5. Five buckets: 28/50 = 0.56 >= 0.5.
	if p.Count != 50 {
		t.Errorf("pair = %+v, want a 50-tuple range", p)
	}
	if p.Conf < 0.5 {
		t.Errorf("returned range not confident: %+v", p)
	}
}

func TestOptimalSupportPairMatchesNaiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(12)
		u, v := randomBuckets(rng, m, 6)
		theta := float64(rng.Intn(101)) / 100
		fast, okF, err := OptimalSupportPair(u, v, theta)
		if err != nil {
			t.Fatal(err)
		}
		naive, okN, err := NaiveOptimalSupportPair(u, v, theta)
		if err != nil {
			t.Fatal(err)
		}
		if okF != okN {
			t.Fatalf("trial %d: ok mismatch fast=%v naive=%v (u=%v v=%v θ=%g)", trial, okF, okN, u, v, theta)
		}
		if !okF {
			continue
		}
		if fast.Count != naive.Count {
			t.Fatalf("trial %d: fast=%+v naive=%+v (u=%v v=%v θ=%g)", trial, fast, naive, u, v, theta)
		}
		if fast.Conf < theta {
			t.Fatalf("trial %d: fast pair not confident: %+v θ=%g", trial, fast, theta)
		}
	}
}

func TestOptimalSupportPairMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8, thetaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(mRaw%80) + 1
		u, v := randomBuckets(rng, m, 50)
		theta := float64(thetaRaw%101) / 100
		fast, okF, err1 := OptimalSupportPair(u, v, theta)
		naive, okN, err2 := NaiveOptimalSupportPair(u, v, theta)
		if err1 != nil || err2 != nil || okF != okN {
			return false
		}
		if !okF {
			return true
		}
		return fast.Count == naive.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestOptimalSupportPairThetaZeroTakesEverything(t *testing.T) {
	u := []int{3, 3, 3}
	v := []float64{0, 1, 0}
	p, ok, err := OptimalSupportPair(u, v, 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if p.S != 0 || p.T != 2 || p.Count != 9 {
		t.Errorf("θ=0 should select the whole domain: %+v", p)
	}
}

func TestMaxGainRangeBasics(t *testing.T) {
	// Gains with θ=0.5 on u=2 everywhere: v-1 per bucket.
	u := []int{2, 2, 2, 2, 2}
	v := []float64{0, 2, 2, 0, 2} // gains: -1, +1, +1, -1, +1
	s, tt, gain, err := MaxGainRange(u, v, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 || tt != 2 || gain != 2 {
		t.Errorf("max gain range = [%d,%d] gain %g, want [1,2] gain 2", s, tt, gain)
	}
	// All-negative gains: best single bucket.
	s, tt, gain, err = MaxGainRange([]int{2, 2}, []float64{0, 0.5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 || tt != 1 || gain != -0.5 {
		t.Errorf("all-negative case = [%d,%d] %g, want [1,1] -0.5", s, tt, gain)
	}
	if _, _, _, err := MaxGainRange(nil, nil, 0.5); err == nil {
		t.Errorf("empty input accepted")
	}
}

func TestMaxGainRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(15)
		u, v := randomBuckets(rng, m, 6)
		theta := float64(rng.Intn(101)) / 100
		s, tt, gain, err := MaxGainRange(u, v, theta)
		if err != nil {
			t.Fatal(err)
		}
		f := gainPrefix(u, v, theta, nil)
		bestGain := f[1] - f[0]
		for a := 0; a < m; a++ {
			for b := a; b < m; b++ {
				if g := f[b+1] - f[a]; g > bestGain {
					bestGain = g
				}
			}
		}
		if gain != bestGain {
			t.Fatalf("trial %d: kadane gain %g, brute force %g (u=%v v=%v θ=%g)", trial, gain, bestGain, u, v, theta)
		}
		if got := f[tt+1] - f[s]; got != gain {
			t.Fatalf("trial %d: reported range [%d,%d] has gain %g, reported %g", trial, s, tt, got, gain)
		}
	}
}

// TestKadaneIsNotOptimizedSupport reproduces the paper's Section 4.2
// remark: the maximum-gain range can be strictly smaller (in support)
// than the optimized-support range.
func TestKadaneIsNotOptimizedSupport(t *testing.T) {
	// θ = 0.5. Buckets (u=10): hits 9, 3, 5. Gains: +4, -2, 0.
	// Kadane picks [0,0] (gain 4). But the whole range [0,2] has
	// confidence 17/30 ≈ 0.567 >= 0.5 with support 30 > 10.
	u := []int{10, 10, 10}
	v := []float64{9, 3, 5}
	ks, kt, _, err := MaxGainRange(u, v, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	opt, ok, err := OptimalSupportPair(u, v, 0.5)
	if err != nil || !ok {
		t.Fatal(err)
	}
	kadaneSupport := 0
	for i := ks; i <= kt; i++ {
		kadaneSupport += u[i]
	}
	if kadaneSupport >= opt.Count {
		t.Fatalf("expected kadane support %d < optimized support %d — the inequivalence example is broken",
			kadaneSupport, opt.Count)
	}
	if opt.Conf < 0.5 {
		t.Fatalf("optimized range not confident: %+v", opt)
	}
}

func BenchmarkOptimalSupportPair1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u, v := randomBuckets(rng, 1000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalSupportPair(u, v, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveOptimalSupportPair1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u, v := randomBuckets(rng, 1000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := NaiveOptimalSupportPair(u, v, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
