package region

import (
	"math/rand"
	"testing"
	"testing/quick"

	"optrule/internal/core"
)

// randomGrid builds a rows×cols grid with cell counts in [0, maxU]
// (zeros allowed — the sweep must handle empty columns).
func randomGrid(rng *rand.Rand, rows, cols, maxU int) *Grid {
	g, err := NewGrid(rows, cols)
	if err != nil {
		panic(err)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.U[r][c] = rng.Intn(maxU + 1)
			g.V[r][c] = float64(rng.Intn(g.U[r][c] + 1))
		}
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 5); err == nil {
		t.Errorf("zero rows accepted")
	}
	if _, err := NewGrid(5, 0); err == nil {
		t.Errorf("zero cols accepted")
	}
	g, err := NewGrid(3, 4)
	if err != nil || g.Rows() != 3 || g.Cols() != 4 || g.Total() != 0 {
		t.Errorf("grid shape wrong: %v %v", g, err)
	}
}

func TestOptimalRectConfidenceSmallPlanted(t *testing.T) {
	// 4x4 grid: a hot 2x2 block at rows 1-2, cols 1-2 with conf 0.9;
	// background conf 0.1; each cell has 10 tuples.
	g, _ := NewGrid(4, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			g.U[r][c] = 10
			if r >= 1 && r <= 2 && c >= 1 && c <= 2 {
				g.V[r][c] = 9
			} else {
				g.V[r][c] = 1
			}
		}
	}
	rect, ok, err := OptimalRectConfidence(g, 40, 1)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if rect.R1 != 1 || rect.R2 != 2 || rect.C1 != 1 || rect.C2 != 2 {
		t.Errorf("rect = %+v, want the hot 2x2 block", rect)
	}
	if rect.Conf != 0.9 || rect.Count != 40 {
		t.Errorf("rect stats wrong: %+v", rect)
	}
}

func TestOptimalRectSupportExpandsWhileConfident(t *testing.T) {
	g, _ := NewGrid(3, 3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			g.U[r][c] = 10
			g.V[r][c] = 2
		}
	}
	// Center row fully hot.
	for c := 0; c < 3; c++ {
		g.V[1][c] = 10
	}
	// θ=0.5: center row alone gives 30 tuples at conf 1.0; adding any
	// other full row drops to (30+6)/60 = 0.6 >= 0.5; all three rows:
	// 42/90 ≈ 0.47 < 0.5. Optimal: two rows, 60 tuples.
	rect, ok, err := OptimalRectSupport(g, 0.5, 1)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if rect.Count != 60 {
		t.Errorf("rect = %+v, want 60 tuples (two full rows)", rect)
	}
	if rect.Conf < 0.5 {
		t.Errorf("rect not confident: %+v", rect)
	}
}

func TestRectMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(rRaw%6) + 1
		cols := int(cRaw%6) + 1
		g := randomGrid(rng, rows, cols, 5)
		if g.Total() == 0 {
			return true
		}
		minSup := float64(rng.Intn(g.Total() + 1))
		fast, okF, err1 := OptimalRectConfidence(g, minSup, 1)
		naive, okN, err2 := NaiveOptimalRectConfidence(g, minSup)
		if err1 != nil || err2 != nil || okF != okN {
			return false
		}
		if okF && (fast.Conf != naive.Conf || fast.Count != naive.Count) {
			return false
		}
		theta := float64(rng.Intn(101)) / 100
		fastS, okFS, err3 := OptimalRectSupport(g, theta, 1)
		naiveS, okNS, err4 := NaiveOptimalRectSupport(g, theta)
		if err3 != nil || err4 != nil || okFS != okNS {
			return false
		}
		if okFS && fastS.Count != naiveS.Count {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestRectSweepSeededTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(5)
		g := randomGrid(rng, rows, cols, 4)
		if g.Total() == 0 {
			continue
		}
		minSup := float64(rng.Intn(g.Total()))
		fast, okF, err := OptimalRectConfidence(g, minSup, 1)
		if err != nil {
			t.Fatal(err)
		}
		naive, okN, err := NaiveOptimalRectConfidence(g, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if okF != okN {
			t.Fatalf("trial %d: ok mismatch (U=%v V=%v minSup=%g)", trial, g.U, g.V, minSup)
		}
		if okF && (fast.Conf != naive.Conf || fast.Count != naive.Count) {
			t.Fatalf("trial %d: fast=%+v naive=%+v (U=%v V=%v)", trial, fast, naive, g.U, g.V)
		}
	}
}

func TestMaxGainRectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(5)
		g := randomGrid(rng, rows, cols, 4)
		theta := float64(rng.Intn(101)) / 100
		fast, ok, err := MaxGainRect(g, theta, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("gain rect should always exist on a non-empty grid")
		}
		// Brute force gain over all rectangles.
		bestGain := 0.0
		first := true
		for r1 := 0; r1 < rows; r1++ {
			for r2 := r1; r2 < rows; r2++ {
				for c1 := 0; c1 < cols; c1++ {
					for c2 := c1; c2 < cols; c2++ {
						gain := 0.0
						for r := r1; r <= r2; r++ {
							for c := c1; c <= c2; c++ {
								gain += g.V[r][c] - theta*float64(g.U[r][c])
							}
						}
						if first || gain > bestGain {
							bestGain = gain
							first = false
						}
					}
				}
			}
		}
		if diff := fast.Gain - bestGain; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: kadane gain %g, brute force %g (U=%v V=%v θ=%g)",
				trial, fast.Gain, bestGain, g.U, g.V, theta)
		}
	}
}

func TestRectValidation(t *testing.T) {
	if _, _, err := OptimalRectConfidence(nil, 1, 1); err == nil {
		t.Errorf("nil grid accepted")
	}
	g, _ := NewGrid(2, 2)
	g.U[1] = g.U[1][:1] // ragged
	if _, _, err := OptimalRectSupport(g, 0.5, 1); err == nil {
		t.Errorf("ragged grid accepted")
	}
	g2, _ := NewGrid(2, 2)
	g2.U[0][0] = -1
	if _, _, err := MaxGainRect(g2, 0.5, 1); err == nil {
		t.Errorf("negative count accepted")
	}
	// Entirely empty grid: no ample rectangle.
	g3, _ := NewGrid(2, 2)
	if _, ok, err := OptimalRectConfidence(g3, 1, 1); err != nil || ok {
		t.Errorf("empty grid should return ok=false: %v %v", ok, err)
	}
}

// NaiveOptimalRectConfidence is the O(M⁴) property-test oracle and
// complexity baseline: the same row-range sweep, but with core's
// quadratic 1-D solver per collapsed row range. Because the 1-D naive
// solvers share every floating-point operation with the fast solvers,
// the oracle is bit-for-bit comparable to the sweep even at exact
// confidence-threshold ties.
func NaiveOptimalRectConfidence(g *Grid, minSupCount float64) (Rect, bool, error) {
	return optimalRect(g, func(u []int, v []float64, _ *core.Scratch) (core.Pair, bool, error) {
		return core.NaiveOptimalSlopePair(u, v, minSupCount)
	}, betterConfidence, nil, 1)
}

// NaiveOptimalRectSupport is the O(M⁴) oracle for the support
// objective; see NaiveOptimalRectConfidence.
func NaiveOptimalRectSupport(g *Grid, theta float64) (Rect, bool, error) {
	return optimalRect(g, func(u []int, v []float64, _ *core.Scratch) (core.Pair, bool, error) {
		return core.NaiveOptimalSupportPair(u, v, theta)
	}, betterSupport, nil, 1)
}
