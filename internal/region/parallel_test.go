package region

import (
	"math/rand"
	"reflect"
	"testing"
)

// Every kernel must return exactly its one-worker (serial) result at
// any worker count — not merely close: the miner's differential tests
// pin the fused 2-D engine (which gives kernels several workers)
// against the per-pair oracle (which runs them with one), so any
// divergence here would surface as a mining difference. Grids are random with
// zero cells allowed, shapes deliberately non-square, and worker
// counts sweep past the row count to exercise the clamping.

func equalRects(a, b Rect) bool { return a == b }

func TestParallelRectKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		rows := 1 + rng.Intn(24)
		cols := 1 + rng.Intn(24)
		g := randomGrid(rng, rows, cols, 6)
		minSup := float64(rng.Intn(g.Total() + 1))
		theta := float64(rng.Intn(101)) / 100
		for _, workers := range []int{2, 3, 8, 33} {
			sc, okS, err := OptimalRectConfidence(g, minSup, 1)
			if err != nil {
				t.Fatal(err)
			}
			pc, okP, err := OptimalRectConfidence(g, minSup, workers)
			if err != nil {
				t.Fatal(err)
			}
			if okS != okP || (okS && !equalRects(sc, pc)) {
				t.Fatalf("trial %d workers %d: confidence serial=%+v/%v parallel=%+v/%v",
					trial, workers, sc, okS, pc, okP)
			}

			ss, okS, err := OptimalRectSupport(g, theta, 1)
			if err != nil {
				t.Fatal(err)
			}
			ps, okP, err := OptimalRectSupport(g, theta, workers)
			if err != nil {
				t.Fatal(err)
			}
			if okS != okP || (okS && !equalRects(ss, ps)) {
				t.Fatalf("trial %d workers %d: support serial=%+v/%v parallel=%+v/%v",
					trial, workers, ss, okS, ps, okP)
			}

			sg, okS, err := MaxGainRect(g, theta, 1)
			if err != nil {
				t.Fatal(err)
			}
			pg, okP, err := MaxGainRect(g, theta, workers)
			if err != nil {
				t.Fatal(err)
			}
			if okS != okP || (okS && !equalRects(sg, pg)) {
				t.Fatalf("trial %d workers %d: gain serial=%+v/%v parallel=%+v/%v",
					trial, workers, sg, okS, pg, okP)
			}
		}
	}
}

// TestParallelRectTiesMatchSerial pins the sweeps' tie rule across
// workers: on grids built from a few repeated cells, many rectangles
// tie (equal confidence, support or gain) in different workers' r1
// values, and the fold of the workers' bests must still return the
// serial sweep's first best, the one with the lowest r1.
func TestParallelRectTiesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cells := [][2]int{{0, 0}, {2, 1}, {4, 2}, {2, 2}}
	for trial := 0; trial < 100; trial++ {
		rows, cols := 2+rng.Intn(20), 1+rng.Intn(20)
		g, err := NewGrid(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		palette := cells[:2+rng.Intn(len(cells)-1)]
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				cell := palette[rng.Intn(len(palette))]
				g.U[r][c], g.V[r][c] = cell[0], float64(cell[1])
			}
		}
		minSup := float64(rng.Intn(g.Total() + 1))
		theta := []float64{0, 0.5, 1}[rng.Intn(3)]
		kernels := []struct {
			name string
			run  func(workers int) (Rect, bool, error)
		}{
			{"confidence", func(w int) (Rect, bool, error) { return OptimalRectConfidence(g, minSup, w) }},
			{"support", func(w int) (Rect, bool, error) { return OptimalRectSupport(g, theta, w) }},
			{"gain", func(w int) (Rect, bool, error) { return MaxGainRect(g, theta, w) }},
		}
		for _, k := range kernels {
			want, okW, err := k.run(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, okG, err := k.run(workers)
				if err != nil {
					t.Fatal(err)
				}
				if okG != okW || got != want {
					t.Fatalf("trial %d %s workers %d: serial=%+v/%v parallel=%+v/%v",
						trial, k.name, workers, want, okW, got, okG)
				}
			}
		}
	}
}

// TestSweepFoldTiesToLowestR1 pins the fold of the workers' bests
// without depending on which worker claimed which r1: a worker whose
// best sits at a later r1 loses a tie to one whose best sits earlier,
// whatever their order, and a strictly better best wins regardless.
func TestSweepFoldTiesToLowestR1(t *testing.T) {
	s := rectSweep{better: betterSupport}
	at := func(r1, count int) sweepWorker {
		return sweepWorker{best: Rect{R1: r1, R2: r1, Count: count}, found: true}
	}
	for _, tc := range []struct {
		ws   []sweepWorker
		want Rect
	}{
		{[]sweepWorker{at(2, 5), at(1, 5)}, Rect{R1: 1, R2: 1, Count: 5}},
		{[]sweepWorker{at(1, 5), at(2, 5)}, Rect{R1: 1, R2: 1, Count: 5}},
		{[]sweepWorker{at(3, 5), {}, at(0, 4), at(4, 5)}, Rect{R1: 3, R2: 3, Count: 5}},
		{[]sweepWorker{at(0, 4), at(5, 6)}, Rect{R1: 5, R2: 5, Count: 6}},
	} {
		got, ok, err := s.fold(tc.ws)
		if err != nil || !ok || got != tc.want {
			t.Errorf("fold(%+v) = %+v/%v/%v, want %+v", tc.ws, got, ok, err, tc.want)
		}
	}
	if _, ok, err := s.fold([]sweepWorker{{}, {}}); ok || err != nil {
		t.Errorf("fold of empty workers = %v/%v, want not found", ok, err)
	}
}

// TestParallelRectMatchesNaiveOracle closes the loop to the O(M⁴)
// oracle: parallel sweep == serial sweep == naive enumeration.
func TestParallelRectMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		g := randomGrid(rng, rows, cols, 5)
		if g.Total() == 0 {
			continue
		}
		minSup := float64(rng.Intn(g.Total() + 1))
		par, okP, err := OptimalRectConfidence(g, minSup, 4)
		if err != nil {
			t.Fatal(err)
		}
		naive, okN, err := NaiveOptimalRectConfidence(g, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if okP != okN || (okP && (par.Conf != naive.Conf || par.Count != naive.Count)) {
			t.Fatalf("trial %d: parallel=%+v/%v naive=%+v/%v (U=%v V=%v minSup=%g)",
				trial, par, okP, naive, okN, g.U, g.V, minSup)
		}
		theta := float64(rng.Intn(101)) / 100
		parS, okP, err := OptimalRectSupport(g, theta, 4)
		if err != nil {
			t.Fatal(err)
		}
		naiveS, okN, err := NaiveOptimalRectSupport(g, theta)
		if err != nil {
			t.Fatal(err)
		}
		if okP != okN || (okP && parS.Count != naiveS.Count) {
			t.Fatalf("trial %d: parallel=%+v/%v naive=%+v/%v", trial, parS, okP, naiveS, okN)
		}
	}
}

func TestParallelDPsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// 40 random grids up to 20x20, then three 64x64 tie-heavy grids,
	// where equally optimal regions are common and only the tie rule
	// decides which one is returned.
	for trial := 0; trial < 43; trial++ {
		var g *Grid
		if trial < 40 {
			g = randomGrid(rng, 1+rng.Intn(20), 1+rng.Intn(20), 6)
		} else {
			g = tieHeavyGrid(rng, 64, 64)
		}
		theta := float64(rng.Intn(101)) / 100
		for _, workers := range []int{2, 5, 16} {
			sx, okS, err := MaxGainXMonotone(g, theta, 1)
			if err != nil {
				t.Fatal(err)
			}
			px, okP, err := MaxGainXMonotone(g, theta, workers)
			if err != nil {
				t.Fatal(err)
			}
			if okS != okP || !reflect.DeepEqual(sx, px) {
				t.Fatalf("trial %d workers %d: xmonotone serial=%+v parallel=%+v",
					trial, workers, sx, px)
			}

			sr, okS, err := MaxGainRectilinearConvex(g, theta, 1)
			if err != nil {
				t.Fatal(err)
			}
			prc, okP, err := MaxGainRectilinearConvex(g, theta, workers)
			if err != nil {
				t.Fatal(err)
			}
			if okS != okP || !reflect.DeepEqual(sr, prc) {
				t.Fatalf("trial %d workers %d: rectconvex serial=%+v parallel=%+v",
					trial, workers, sr, prc)
			}
		}
	}
}

// TestGridFlatFallback pins the kernels' behavior on grids whose rows
// do not alias a contiguous backing: struct-literal grids and grids
// with rebound rows must yield the same results as packed ones.
func TestGridFlatFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGrid(rng, 5, 7, 5)
	// A literal grid with copied rows (no backing at all).
	lit := &Grid{U: make([][]int, 5), V: make([][]float64, 5)}
	for r := 0; r < 5; r++ {
		lit.U[r] = append([]int(nil), g.U[r]...)
		lit.V[r] = append([]float64(nil), g.V[r]...)
	}
	minSup := float64(g.Total() / 4)
	want, okW, err := OptimalRectConfidence(g, minSup, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, okG, err := OptimalRectConfidence(lit, minSup, 1)
	if err != nil {
		t.Fatal(err)
	}
	if okW != okG || want != got {
		t.Fatalf("literal grid: %+v/%v, want %+v/%v", got, okG, want, okW)
	}
	// A NewGrid grid with one row rebound to a foreign slice.
	reb := randomGrid(rng, 5, 7, 5)
	for r := 0; r < 5; r++ {
		copy(reb.U[r], g.U[r])
		copy(reb.V[r], g.V[r])
	}
	reb.U[2] = append([]int(nil), g.U[2]...)
	got2, okG2, err := OptimalRectConfidence(reb, minSup, 1)
	if err != nil {
		t.Fatal(err)
	}
	if okW != okG2 || want != got2 {
		t.Fatalf("rebound grid: %+v/%v, want %+v/%v", got2, okG2, want, okW)
	}
}

func TestGridTotalCachedAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randomGrid(rng, 4, 6, 5)
	b := randomGrid(rng, 4, 6, 5)
	wantTotal := a.Total() + b.Total()
	wantSumV := a.SumV() + b.SumV()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != wantTotal {
		t.Errorf("merged Total = %d, want %d", a.Total(), wantTotal)
	}
	if a.SumV() != wantSumV {
		t.Errorf("merged SumV = %g, want %g", a.SumV(), wantSumV)
	}
	// Repeated calls stay consistent (cached path).
	if a.Total() != wantTotal {
		t.Errorf("cached Total = %d, want %d", a.Total(), wantTotal)
	}
	// Shape mismatch must error.
	c := randomGrid(rng, 3, 6, 5)
	if err := a.Merge(c); err == nil {
		t.Error("merging mismatched shapes should error")
	}
}
