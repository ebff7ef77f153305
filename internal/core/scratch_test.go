package core

import (
	"math/rand"
	"testing"
)

// TestScratchVariantsMatchPlain pins the pooled-scratch solvers to the
// allocating entry points bit for bit, across reuse of one Scratch for
// problems of varying size — the 2-D rectangle sweep's usage pattern.
func TestScratchVariantsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sc := &Scratch{}
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(80)
		u := make([]int, m)
		v := make([]float64, m)
		for i := range u {
			u[i] = 1 + rng.Intn(20)
			v[i] = float64(rng.Intn(u[i] + 1))
		}
		total := 0
		for _, x := range u {
			total += x
		}
		minSup := float64(rng.Intn(total + 1))
		theta := float64(rng.Intn(101)) / 100

		p1, ok1, err1 := OptimalSlopePair(u, v, minSup)
		p2, ok2, err2 := OptimalSlopePairScratch(u, v, minSup, sc)
		if (err1 == nil) != (err2 == nil) || ok1 != ok2 || p1 != p2 {
			t.Fatalf("trial %d: slope plain=%+v/%v/%v scratch=%+v/%v/%v",
				trial, p1, ok1, err1, p2, ok2, err2)
		}

		s1, ok1, err1 := OptimalSupportPair(u, v, theta)
		s2, ok2, err2 := OptimalSupportPairScratch(u, v, theta, sc)
		if (err1 == nil) != (err2 == nil) || ok1 != ok2 || s1 != s2 {
			t.Fatalf("trial %d: support plain=%+v/%v/%v scratch=%+v/%v/%v",
				trial, s1, ok1, err1, s2, ok2, err2)
		}
	}
	// Nil scratch must behave like the plain entry points.
	u := []int{3, 1, 4}
	v := []float64{1, 1, 2}
	p1, ok1, _ := OptimalSlopePair(u, v, 2)
	p2, ok2, _ := OptimalSlopePairScratch(u, v, 2, nil)
	if ok1 != ok2 || p1 != p2 {
		t.Fatalf("nil scratch: %+v/%v vs %+v/%v", p1, ok1, p2, ok2)
	}
}

// TestScratchValidation: invalid inputs error identically.
func TestScratchValidation(t *testing.T) {
	sc := &Scratch{}
	if _, _, err := OptimalSlopePairScratch(nil, nil, 1, sc); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := OptimalSupportPairScratch([]int{0}, []float64{0}, 0.5, sc); err == nil {
		t.Error("empty bucket accepted")
	}
}

// TestSolverAllocations pins the one-body solvers' allocation counts
// at M = 1000: a reused Scratch allocates nothing, and a nil Scratch
// builds each optimized-support table once (F, effective indices, PU,
// PV).
func TestSolverAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := make([]int, 1000)
	v := make([]float64, 1000)
	for i := range u {
		u[i] = 1 + rng.Intn(20)
		v[i] = float64(rng.Intn(u[i] + 1))
	}
	sc := &Scratch{}
	if n := testing.AllocsPerRun(10, func() { OptimalSlopePairScratch(u, v, 2500, sc) }); n != 0 {
		t.Errorf("OptimalSlopePairScratch with a reused Scratch: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { OptimalSupportPairScratch(u, v, 0.5, sc) }); n != 0 {
		t.Errorf("OptimalSupportPairScratch with a reused Scratch: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { OptimalSupportPair(u, v, 0.5) }); n > 4 {
		t.Errorf("OptimalSupportPair: %v allocations, want at most 4", n)
	}
}
