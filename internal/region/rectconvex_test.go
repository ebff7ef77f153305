package region

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"optrule/internal/freelist"
)

// bruteForceRectConvexGain enumerates every rectilinear-convex region
// of a tiny grid: chains of overlapping intervals with valley-unimodal
// lower and hill-unimodal upper endpoints.
func bruteForceRectConvexGain(g *Grid, theta float64) float64 {
	rows, cols := g.Rows(), g.Cols()
	gain := func(c, a, b int) float64 {
		s := 0.0
		for r := a; r <= b; r++ {
			s += g.V[r][c] - theta*float64(g.U[r][c])
		}
		return s
	}
	best := math.Inf(-1)
	// aSwitched: lower endpoint has started rising; bSwitched: upper
	// endpoint has started falling.
	var extend func(c, a, b int, aSwitched, bSwitched bool, acc float64)
	extend = func(c, a, b int, aSwitched, bSwitched bool, acc float64) {
		if acc > best {
			best = acc
		}
		if c+1 >= cols {
			return
		}
		for a2 := 0; a2 < rows; a2++ {
			for b2 := a2; b2 < rows; b2++ {
				if a2 > b || a > b2 {
					continue // not overlapping
				}
				as, bs := aSwitched, bSwitched
				if a2 > a {
					as = true
				} else if a2 < a && aSwitched {
					continue // lower endpoint fell after rising
				}
				if b2 < b {
					bs = true
				} else if b2 > b && bSwitched {
					continue // upper endpoint rose after falling
				}
				extend(c+1, a2, b2, as, bs, acc+gain(c+1, a2, b2))
			}
		}
	}
	for c := 0; c < cols; c++ {
		for a := 0; a < rows; a++ {
			for b := a; b < rows; b++ {
				extend(c, a, b, false, false, gain(c, a, b))
			}
		}
	}
	return best
}

func TestRectConvexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 150; trial++ {
		rows := 1 + rng.Intn(4)
		cols := 1 + rng.Intn(4)
		g := randomGrid(rng, rows, cols, 4)
		theta := float64(rng.Intn(101)) / 100
		fast, ok, err := MaxGainRectilinearConvex(g, theta, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: no region on a valid grid", trial)
		}
		want := bruteForceRectConvexGain(g, theta)
		if math.Abs(fast.Gain-want) > 1e-9 {
			t.Fatalf("trial %d: DP gain %g, brute force %g (U=%v V=%v θ=%g)",
				trial, fast.Gain, want, g.U, g.V, theta)
		}
		// Structural checks: x-monotone invariants + unimodal endpoints
		// + the recomputed gain matches.
		if err := fast.Validate(rows, cols); err != nil {
			t.Fatalf("trial %d: invalid region: %v (%+v)", trial, err, fast)
		}
		if !fast.IsRectilinearConvex() {
			t.Fatalf("trial %d: region not rectilinear-convex: %+v", trial, fast.Columns)
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

// tieHeavyGrid returns a grid of small integer cells with about two
// thirds of them zeroed, so equal-gain predecessors and tied optima
// are common.
func tieHeavyGrid(rng *rand.Rand, rows, cols int) *Grid {
	g := randomGrid(rng, rows, cols, 4)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Intn(3) != 0 {
				g.U[r][c], g.V[r][c] = 0, 0
			}
		}
	}
	return g
}

// referenceRectConvex is the rectilinear-convex DP with every
// predecessor found by scanning all allowed (layer, a', b') of the
// previous column, straight from the phase definitions, under the
// documented tie rule: higher value, then lower layer, then lower flat
// index a'·rows+b'. The optimum is the first strictly best cell in
// (column, layer, a, b) order, as in the kernel.
func referenceRectConvex(g *Grid, theta float64) XMonotoneRegion {
	rows, cols := g.Rows(), g.Cols()
	rr := rows * rows
	type link struct{ layer, idx int } // layer −1: the region starts here
	f := make([][4][]float64, cols)
	back := make([][4][]link, cols)
	bestGain := math.Inf(-1)
	bestCol, bestLayer, bestIdx := -1, -1, -1
	for c := 0; c < cols; c++ {
		for l := 0; l < 4; l++ {
			f[c][l] = make([]float64, rr)
			back[c][l] = make([]link, rr)
			pa, pb := l/2, l%2
			for a := 0; a < rows; a++ {
				w := 0.0
				for b := a; b < rows; b++ {
					w += g.V[b][c] - theta*float64(g.U[b][c])
					found, bv, bl, bi := false, 0.0, 0, 0
					for p := 0; c > 0 && p < 4; p++ {
						if p/2 > pa || p%2 > pb {
							continue // phases only move forward
						}
						for a2 := 0; a2 < rows; a2++ {
							for b2 := a2; b2 < rows; b2++ {
								if a2 > b || b2 < a {
									continue // no overlap
								}
								if (pa == 0 && a2 < a) || (pa == 1 && a2 > a) ||
									(pb == 0 && b2 > b) || (pb == 1 && b2 < b) {
									continue // endpoint moves against the phase
								}
								v, i := f[c-1][p][a2*rows+b2], a2*rows+b2
								if !found || v > bv || (v == bv && (p < bl || (p == bl && i < bi))) {
									found, bv, bl, bi = true, v, p, i
								}
							}
						}
					}
					idx := a*rows + b
					if found && bv > 0 {
						f[c][l][idx] = w + bv
						back[c][l][idx] = link{bl, bi}
					} else {
						f[c][l][idx] = w
						back[c][l][idx] = link{-1, 0}
					}
					if f[c][l][idx] > bestGain {
						bestGain, bestCol, bestLayer, bestIdx = f[c][l][idx], c, l, idx
					}
				}
			}
		}
	}
	region := XMonotoneRegion{Gain: bestGain}
	c, l, idx := bestCol, bestLayer, bestIdx
	for {
		region.Columns = append([]ColumnInterval{{Col: c, Lo: idx / rows, Hi: idx % rows}}, region.Columns...)
		lk := back[c][l][idx]
		if lk.layer < 0 {
			break
		}
		c, l, idx = c-1, lk.layer, lk.idx
	}
	for _, ci := range region.Columns {
		for r := ci.Lo; r <= ci.Hi; r++ {
			region.Count += g.U[r][ci.Col]
			region.SumV += g.V[r][ci.Col]
		}
	}
	if region.Count > 0 {
		region.Conf = region.SumV / float64(region.Count)
	}
	return region
}

// TestRectConvexTieRuleMatchesReference pins the backtracked region,
// not only the gain: on tie-heavy grids the kernel must return exactly
// the region the tie rule selects, for every worker count.
func TestRectConvexTieRuleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 150; trial++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		g := tieHeavyGrid(rng, rows, cols)
		theta := float64(rng.Intn(101)) / 100
		want := referenceRectConvex(g, theta)
		for _, workers := range []int{1, 2, 5} {
			got, ok, err := MaxGainRectilinearConvex(g, theta, workers)
			if err != nil || !ok {
				t.Fatalf("trial %d workers %d: ok=%v err=%v", trial, workers, ok, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d (%dx%d, θ=%g): kernel %+v, reference %+v",
					trial, workers, rows, cols, theta, got, want)
			}
		}
	}
}

func TestRegionClassHierarchy(t *testing.T) {
	// Rectangles ⊆ rectilinear-convex ⊆ x-monotone, so the optimal
	// gains must be ordered the same way on every grid.
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 80; trial++ {
		rows := 2 + rng.Intn(5)
		cols := 2 + rng.Intn(5)
		g := randomGrid(rng, rows, cols, 5)
		theta := 0.5
		rect, _, err := MaxGainRect(g, theta, 1)
		if err != nil {
			t.Fatal(err)
		}
		rc, _, err := MaxGainRectilinearConvex(g, theta, 1)
		if err != nil {
			t.Fatal(err)
		}
		xm, _, err := MaxGainXMonotone(g, theta, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Gain < rect.Gain-1e-9 {
			t.Fatalf("trial %d: rectilinear-convex gain %g below rectangle %g", trial, rc.Gain, rect.Gain)
		}
		if xm.Gain < rc.Gain-1e-9 {
			t.Fatalf("trial %d: x-monotone gain %g below rectilinear-convex %g", trial, xm.Gain, rc.Gain)
		}
	}
}

func TestRectConvexDiamond(t *testing.T) {
	// A diamond (bulging then shrinking) is rectilinear-convex but not
	// a rectangle: columns with intervals [2,2], [1,3], [0,4], [1,3],
	// [2,2] hot in a 5x5 grid.
	n := 5
	g, _ := NewGrid(n, n)
	widths := [][2]int{{2, 2}, {1, 3}, {0, 4}, {1, 3}, {2, 2}}
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			g.U[r][c] = 10
			if r >= widths[c][0] && r <= widths[c][1] {
				g.V[r][c] = 10
			}
		}
	}
	rc, ok, err := MaxGainRectilinearConvex(g, 0.5, 1)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// The diamond has 13 hot cells, gain 13·5 = 65; it should be found
	// exactly.
	if rc.Gain != 65 {
		t.Errorf("diamond gain = %g, want 65 (%+v)", rc.Gain, rc.Columns)
	}
	if rc.Conf != 1 {
		t.Errorf("diamond confidence = %g, want 1", rc.Conf)
	}
	if !rc.IsRectilinearConvex() {
		t.Errorf("diamond region not marked rectilinear-convex")
	}
	// A rectangle can capture at most the middle 3 columns × rows 1-3
	// (9 cells, 8 hot... actually [1,3]x[1,3]: hot cells 3+3+3 minus
	// corners of diamond... compute: best rectangle gain must be lower.
	rect, _, err := MaxGainRect(g, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rect.Gain >= rc.Gain {
		t.Errorf("rectangle gain %g should be below the diamond's %g", rect.Gain, rc.Gain)
	}
}

func TestIsRectilinearConvexNegativeCases(t *testing.T) {
	// a falls after rising: valley violated.
	r := XMonotoneRegion{Columns: []ColumnInterval{
		{Col: 0, Lo: 2, Hi: 3}, {Col: 1, Lo: 3, Hi: 3}, {Col: 2, Lo: 2, Hi: 3},
	}}
	if r.IsRectilinearConvex() {
		t.Errorf("a-endpoint valley violation not detected")
	}
	// b rises after falling: hill violated.
	r = XMonotoneRegion{Columns: []ColumnInterval{
		{Col: 0, Lo: 0, Hi: 3}, {Col: 1, Lo: 0, Hi: 2}, {Col: 2, Lo: 0, Hi: 3},
	}}
	if r.IsRectilinearConvex() {
		t.Errorf("b-endpoint hill violation not detected")
	}
}

// TestSlabPoolSurvivesCollection pins freelist.Slabs, the free list
// of the DP slabs: a kept slab comes back after two collections (a
// sync.Pool would have dropped it), no more than one slab per
// GOMAXPROCS is kept, and a slab too large to keep goes to the
// sync.Pool instead.
func TestSlabPoolSurvivesCollection(t *testing.T) {
	t.Run("dp_slab", func(t *testing.T) {
		checkSlabsSurvive(t, func() *freelist.Slabs[int32] { return &freelist.Slabs[int32]{} })
	})
}

func checkSlabsSurvive[E any](t *testing.T, fresh func() *freelist.Slabs[E]) {
	sp := fresh()
	s := sp.Get(1000)
	sp.Put(s)
	runtime.GC()
	runtime.GC()
	if got := sp.Get(900); &got[0] != &s[0] || len(got) != 900 {
		t.Fatalf("kept slab not returned after two collections")
	}
	bound := runtime.GOMAXPROCS(0)
	for range bound + 3 {
		sp.Put(sp.Get(10))
		sp.Put(make([]E, 10))
	}
	if sp.Len() != bound {
		t.Fatalf("kept %d slabs, want the bound %d", sp.Len(), bound)
	}
	var e E
	big := fresh()
	big.Put(big.Get(freelist.MaxBytes/int(unsafe.Sizeof(e)) + 1))
	if big.Len() != 0 {
		t.Fatalf("a slab over freelist.MaxBytes was kept")
	}
}

// TestDPSlabReuse pins the recycled backtracking slabs: a small
// tie-heavy grid, then a 64×64 one, run through both DPs on freshly
// allocated slabs; then each runs again on recycled slabs overwritten
// with stale predecessor links. Every region must equal its fresh-slab
// run, and the small grid's rectilinear-convex region the naive
// reference's.
func TestDPSlabReuse(t *testing.T) {
	drain := func() {
		choicePool = freelist.Slabs[int32]{}
		backPool = freelist.Slabs[int32]{}
	}
	poison := func() {
		for _, sp := range []*freelist.Slabs[int32]{&choicePool, &backPool} {
			s := sp.Get(64 * 4 * 64 * 64)
			for i := range s {
				s[i] = 1 // a valid but stale link: layer 0, cell (0, 1)
			}
			sp.Put(s)
		}
	}
	type result struct{ xm, rc XMonotoneRegion }
	solve := func(g *Grid, theta float64) result {
		xm, ok, err := MaxGainXMonotone(g, theta, 2)
		if err != nil || !ok {
			t.Fatalf("x-monotone: ok=%v err=%v", ok, err)
		}
		rc, ok, err := MaxGainRectilinearConvex(g, theta, 2)
		if err != nil || !ok {
			t.Fatalf("rectilinear-convex: ok=%v err=%v", ok, err)
		}
		return result{xm, rc}
	}
	rng := rand.New(rand.NewSource(67))
	small, large := tieHeavyGrid(rng, 9, 11), tieHeavyGrid(rng, 64, 64)
	const theta = 0.4
	drain()
	freshSmall := solve(small, theta)
	if want := referenceRectConvex(small, theta); !reflect.DeepEqual(freshSmall.rc, want) {
		t.Fatalf("small grid: kernel %+v, reference %+v", freshSmall.rc, want)
	}
	drain()
	freshLarge := solve(large, theta)
	for _, tc := range []struct {
		name  string
		g     *Grid
		fresh result
	}{{"64x64", large, freshLarge}, {"9x11", small, freshSmall}} {
		poison()
		if got := solve(tc.g, theta); !reflect.DeepEqual(got, tc.fresh) {
			t.Fatalf("%s on recycled slabs: %+v, fresh slabs: %+v", tc.name, got, tc.fresh)
		}
	}
}
