package region

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForceXMonotoneGain enumerates every x-monotone region of a tiny
// grid recursively: choose a starting column and interval, then extend
// rightward with overlapping intervals or stop.
func bruteForceXMonotoneGain(g *Grid, theta float64) float64 {
	rows, cols := g.Rows(), g.Cols()
	gain := func(c, a, b int) float64 {
		s := 0.0
		for r := a; r <= b; r++ {
			s += g.V[r][c] - theta*float64(g.U[r][c])
		}
		return s
	}
	best := math.Inf(-1)
	var extend func(c, a, b int, acc float64)
	extend = func(c, a, b int, acc float64) {
		if acc > best {
			best = acc
		}
		if c+1 >= cols {
			return
		}
		for a2 := 0; a2 < rows; a2++ {
			for b2 := a2; b2 < rows; b2++ {
				if a2 <= b && a <= b2 { // overlap
					extend(c+1, a2, b2, acc+gain(c+1, a2, b2))
				}
			}
		}
	}
	for c := 0; c < cols; c++ {
		for a := 0; a < rows; a++ {
			for b := a; b < rows; b++ {
				extend(c, a, b, gain(c, a, b))
			}
		}
	}
	return best
}

func TestXMonotoneMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(4)
		cols := 1 + rng.Intn(4)
		g := randomGrid(rng, rows, cols, 4)
		theta := float64(rng.Intn(101)) / 100
		fast, ok, err := MaxGainXMonotone(g, theta, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: no region on a valid grid", trial)
		}
		want := bruteForceXMonotoneGain(g, theta)
		if math.Abs(fast.Gain-want) > 1e-9 {
			t.Fatalf("trial %d: DP gain %g, brute force %g (U=%v V=%v θ=%g)",
				trial, fast.Gain, want, g.U, g.V, theta)
		}
		// The reported region must be structurally x-monotone and its
		// recomputed gain must equal the reported gain.
		if err := fast.Validate(rows, cols); err != nil {
			t.Fatalf("trial %d: invalid region: %v (%+v)", trial, err, fast)
		}
		recomputed := 0.0
		for _, ci := range fast.Columns {
			for r := ci.Lo; r <= ci.Hi; r++ {
				recomputed += g.V[r][ci.Col] - theta*float64(g.U[r][ci.Col])
			}
		}
		if math.Abs(recomputed-fast.Gain) > 1e-9 {
			t.Fatalf("trial %d: region gain %g != reported %g", trial, recomputed, fast.Gain)
		}
	}
}

func TestXMonotoneBeatsRectangle(t *testing.T) {
	// X-monotone regions generalize rectangles, so the x-monotone gain
	// can never be lower; on a diagonal hot band it must be strictly
	// higher.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		rows := 2 + rng.Intn(5)
		cols := 2 + rng.Intn(5)
		g := randomGrid(rng, rows, cols, 5)
		theta := 0.5
		xm, okX, err := MaxGainXMonotone(g, theta, 1)
		if err != nil || !okX {
			t.Fatal(err)
		}
		rect, okR, err := MaxGainRect(g, theta, 1)
		if err != nil || !okR {
			t.Fatal(err)
		}
		if xm.Gain < rect.Gain-1e-9 {
			t.Fatalf("trial %d: x-monotone gain %g below rectangle gain %g", trial, xm.Gain, rect.Gain)
		}
	}

	// Thick diagonal hot band: cells with |r − c| <= 1 are hot. Column
	// intervals [c−1, c+1] overlap their neighbours, so the x-monotone
	// optimum follows the whole band, while any rectangle must either
	// stay small or swallow cold off-band cells.
	n := 6
	g, _ := NewGrid(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			g.U[r][c] = 10
			if r-c <= 1 && c-r <= 1 {
				g.V[r][c] = 10
			}
		}
	}
	xm, _, err := MaxGainXMonotone(g, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	rect, _, err := MaxGainRect(g, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if xm.Gain <= rect.Gain {
		t.Errorf("diagonal band: x-monotone gain %g should strictly beat rectangle %g", xm.Gain, rect.Gain)
	}
	// The region should follow the band across every column, each
	// interval containing the diagonal cell (c, c).
	if len(xm.Columns) != n {
		t.Errorf("band region should span all %d columns, got %d (%+v)", n, len(xm.Columns), xm.Columns)
	}
	for _, ci := range xm.Columns {
		if ci.Lo > ci.Col || ci.Hi < ci.Col {
			t.Errorf("column %d interval [%d, %d] misses the diagonal cell", ci.Col, ci.Lo, ci.Hi)
		}
	}
	// The band is pure: confidence 1.
	if xm.Conf != 1 {
		t.Errorf("band region confidence %g, want 1 (%+v)", xm.Conf, xm.Columns)
	}
}

func TestXMonotoneSingleColumnAndCell(t *testing.T) {
	g, _ := NewGrid(3, 1)
	g.U[0][0], g.U[1][0], g.U[2][0] = 2, 2, 2
	g.V[0][0], g.V[1][0], g.V[2][0] = 0, 2, 0
	xm, ok, err := MaxGainXMonotone(g, 0.5, 1)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Best: just the middle cell, gain 2 − 1 = 1.
	if xm.Gain != 1 || len(xm.Columns) != 1 || xm.Columns[0].Lo != 1 || xm.Columns[0].Hi != 1 {
		t.Errorf("region = %+v, want the middle cell with gain 1", xm)
	}
	if xm.Count != 2 || xm.Conf != 1 {
		t.Errorf("region stats wrong: %+v", xm)
	}
}

func TestXMonotoneValidation(t *testing.T) {
	if _, _, err := MaxGainXMonotone(nil, 0.5, 1); err == nil {
		t.Errorf("nil grid accepted")
	}
	r := XMonotoneRegion{}
	if err := r.Validate(3, 3); err == nil {
		t.Errorf("empty region validated")
	}
	r = XMonotoneRegion{Columns: []ColumnInterval{{Col: 0, Lo: 0, Hi: 1}, {Col: 2, Lo: 0, Hi: 1}}}
	if err := r.Validate(3, 3); err == nil {
		t.Errorf("non-consecutive columns validated")
	}
	r = XMonotoneRegion{Columns: []ColumnInterval{{Col: 0, Lo: 0, Hi: 0}, {Col: 1, Lo: 2, Hi: 2}}}
	if err := r.Validate(3, 3); err == nil {
		t.Errorf("non-overlapping intervals validated")
	}
}
