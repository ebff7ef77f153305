package core

import (
	"math/rand"
	"sync"
	"testing"
)

// preparedBuckets is randomBuckets (sizes in [1, 20]) plus the total
// size.
func preparedBuckets(rng *rand.Rand, m int) ([]int, []float64, int) {
	u, v := randomBuckets(rng, m, 20)
	total := 0
	for _, x := range u {
		total += x
	}
	return u, v, total
}

// TestPreparedMatchesPlain pins solves over one shared Prepared, at
// many thresholds and with a reused Scratch, to the plain entry points
// bit for bit: the optimized-confidence and -support pairs and both
// top-k loops (whose later segments are prepared into the Scratch).
func TestPreparedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sc := &Scratch{}
	for trial := 0; trial < 200; trial++ {
		u, v, total := preparedBuckets(rng, 1+rng.Intn(80))
		p, err := Prepare(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if count, sum := p.Totals(); count != total || sum != p.pv[len(u)] {
			t.Fatalf("trial %d: Totals = %d/%g, want %d", trial, count, sum, total)
		}
		for q := 0; q < 5; q++ {
			minSup := float64(rng.Intn(total + 1))
			theta := float64(rng.Intn(101)) / 100
			k := 1 + rng.Intn(4)

			p1, ok1, err1 := OptimalSlopePair(u, v, minSup)
			p2, ok2, err2 := p.OptimalSlopePair(minSup, sc)
			if err1 != nil || err2 != nil || ok1 != ok2 || p1 != p2 {
				t.Fatalf("trial %d: slope plain=%+v/%v/%v prepared=%+v/%v/%v", trial, p1, ok1, err1, p2, ok2, err2)
			}
			s1, ok1, err1 := OptimalSupportPair(u, v, theta)
			s2, ok2, err2 := p.OptimalSupportPair(theta, sc)
			if err1 != nil || err2 != nil || ok1 != ok2 || s1 != s2 {
				t.Fatalf("trial %d: support plain=%+v/%v/%v prepared=%+v/%v/%v", trial, s1, ok1, err1, s2, ok2, err2)
			}
			// topKRef solves every segment from its own slices.
			k1, err1 := topKRef(u, v, k, func(su []int, sv []float64) (Pair, bool, error) {
				return OptimalSlopePair(su, sv, minSup)
			}, true)
			k2, err2 := p.TopKSlopePairs(minSup, k, sc)
			if err1 != nil || err2 != nil || !samePairs(k1, k2) {
				t.Fatalf("trial %d: top-%d slope ref=%+v prepared=%+v (%v, %v)", trial, k, k1, k2, err1, err2)
			}
			k1, err1 = topKRef(u, v, k, func(su []int, sv []float64) (Pair, bool, error) {
				return OptimalSupportPair(su, sv, theta)
			}, false)
			k2, err2 = p.TopKSupportPairs(theta, k, sc)
			if err1 != nil || err2 != nil || !samePairs(k1, k2) {
				t.Fatalf("trial %d: top-%d support ref=%+v prepared=%+v (%v, %v)", trial, k, k1, k2, err1, err2)
			}
		}
	}
}

// TestPreparedConcurrentSweeps: one Prepared serves concurrent sweeps,
// each goroutine with its own Scratch, and interleaved …Scratch solves
// (which Init the Scratch's own hull tree) never disturb the shared
// tree. Run with -race.
func TestPreparedConcurrentSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	u, v, total := preparedBuckets(rng, 500)
	p, err := Prepare(u, v)
	if err != nil {
		t.Fatal(err)
	}
	thresholds := make([]float64, 40)
	want := make([]Pair, len(thresholds))
	for i := range thresholds {
		thresholds[i] = float64(rng.Intn(total/2 + 1))
		want[i], _, _ = OptimalSlopePair(u, v, thresholds[i])
	}
	other, _, _ := preparedBuckets(rng, 300)
	otherV := make([]float64, len(other))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := &Scratch{}
			for r := 0; r < 3; r++ {
				for i, th := range thresholds {
					got, _, err := p.OptimalSlopePair(th, sc)
					if err != nil || got != want[i] {
						t.Errorf("worker %d: threshold %g: %+v (%v), want %+v", w, th, got, err, want[i])
						return
					}
					if _, _, err := OptimalSlopePairScratch(other, otherV, th, sc); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPreparedSweepAllocations: a sweep over a shared Prepared with a
// reused Scratch allocates nothing, at any M.
func TestPreparedSweepAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	u, v, total := preparedBuckets(rng, 1000)
	p, err := Prepare(u, v)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	if n := testing.AllocsPerRun(10, func() { p.OptimalSlopePair(float64(total)/4, sc) }); n != 0 {
		t.Errorf("Prepared.OptimalSlopePair: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { p.OptimalSupportPair(0.5, sc) }); n != 0 {
		t.Errorf("Prepared.OptimalSupportPair: %v allocations, want 0", n)
	}
}

// TestPreparedErrors: Prepare validates like the plain entry points,
// and a Prepared that lives in one Scratch cannot be swept through
// another, nor drive a top-k loop through its own.
func TestPreparedErrors(t *testing.T) {
	if _, err := Prepare([]int{1, 0}, []float64{0, 0}); err == nil {
		t.Error("empty bucket accepted")
	}
	sc := &Scratch{}
	p, err := sc.Prepare([]int{3, 1, 4}, []float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.OptimalSlopePair(1, &Scratch{}); err == nil {
		t.Error("swept a Scratch's Prepared through another Scratch")
	}
	if _, err := p.TopKSlopePairs(1, 2, sc); err == nil {
		t.Error("top-k over a Prepared living in its own Scratch")
	}
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// topKRef is the greedy disjoint-range loop solving every segment from
// its own slices, as the plain entry points would.
func topKRef(u []int, v []float64, k int, solve func([]int, []float64) (Pair, bool, error), slope bool) ([]Pair, error) {
	type seg struct {
		lo, hi int
		p      Pair
		ok     bool
	}
	run := func(lo, hi int) (seg, error) {
		s := seg{lo: lo, hi: hi}
		if lo > hi {
			return s, nil
		}
		p, ok, err := solve(u[lo:hi+1], v[lo:hi+1])
		if ok {
			p.S += lo
			p.T += lo
			s.p, s.ok = p, true
		}
		return s, err
	}
	better := func(a, b Pair) bool {
		if !slope {
			return a.Count > b.Count
		}
		la, lb := a.SumV*float64(b.Count), b.SumV*float64(a.Count)
		if la != lb {
			return la > lb
		}
		return a.Count > b.Count
	}
	first, err := run(0, len(u)-1)
	if err != nil {
		return nil, err
	}
	segs := []seg{first}
	var out []Pair
	for len(out) < k {
		best := -1
		for i, s := range segs {
			if s.ok && (best < 0 || better(s.p, segs[best].p)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := segs[best]
		out = append(out, c.p)
		segs = append(segs[:best], segs[best+1:]...)
		for _, r := range [][2]int{{c.lo, c.p.S - 1}, {c.p.T + 1, c.hi}} {
			s, err := run(r[0], r[1])
			if err != nil {
				return nil, err
			}
			if s.ok {
				segs = append(segs, s)
			}
		}
	}
	return out, nil
}
