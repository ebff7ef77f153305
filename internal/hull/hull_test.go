package hull

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestCrossOrientation(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Cross(a, b, Point{2, 1}) <= 0 {
		t.Errorf("left turn should be positive")
	}
	if Cross(a, b, Point{2, -1}) >= 0 {
		t.Errorf("right turn should be negative")
	}
	if Cross(a, b, Point{2, 0}) != 0 {
		t.Errorf("collinear should be zero")
	}
}

func TestCompareSlopes(t *testing.T) {
	o := Point{0, 0}
	if CompareSlopes(o, Point{1, 1}, Point{1, 2}) != -1 {
		t.Errorf("slope 1 vs 2 should compare -1")
	}
	if CompareSlopes(o, Point{1, 2}, Point{2, 2}) != 1 {
		t.Errorf("slope 2 vs 1 should compare +1")
	}
	if CompareSlopes(o, Point{1, 1}, Point{2, 2}) != 0 {
		t.Errorf("equal slopes should compare 0")
	}
	// Negative slopes.
	if CompareSlopes(o, Point{1, -3}, Point{1, -2}) != -1 {
		t.Errorf("-3 vs -2 should compare -1")
	}
}

func TestAboveOrOn(t *testing.T) {
	a, b := Point{0, 0}, Point{2, 2}
	if !AboveOrOn(Point{1, 1.5}, a, b) {
		t.Errorf("point above line not detected")
	}
	if !AboveOrOn(Point{1, 1}, a, b) {
		t.Errorf("point on line not detected")
	}
	if AboveOrOn(Point{1, 0.5}, a, b) {
		t.Errorf("point below line misclassified")
	}
}

func TestUpperHullSmallCases(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
		want []int
	}{
		{"empty", nil, nil},
		{"single", []Point{{0, 0}}, []int{0}},
		{"pair", []Point{{0, 0}, {1, 5}}, []int{0, 1}},
		{"peak", []Point{{0, 0}, {1, 1}, {2, 0}}, []int{0, 1, 2}},
		{"valley", []Point{{0, 0}, {1, -1}, {2, 0}}, []int{0, 2}},
		{"collinear", []Point{{0, 0}, {1, 1}, {2, 2}}, []int{0, 2}},
		{"staircase", []Point{{0, 0}, {1, 3}, {2, 4}, {3, 4.5}}, []int{0, 1, 2, 3}},
		{"interior below", []Point{{0, 0}, {1, 0}, {2, 1}}, []int{0, 2}},
	}
	for _, c := range cases {
		got := UpperHull(c.pts)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: UpperHull = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestUpperHullIsHullProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		pts := make([]Point, n)
		x := 0.0
		for i := range pts {
			x += 1 + rng.Float64()*3
			pts[i] = Point{X: x, Y: rng.NormFloat64() * 10}
		}
		h := UpperHull(pts)
		if len(h) == 0 || h[0] != 0 || h[len(h)-1] != n-1 {
			return false // endpoints must be on the hull
		}
		// Every point must lie on or below every hull edge's line within
		// the edge's x-span... equivalently below the hull polyline.
		for e := 0; e+1 < len(h); e++ {
			a, b := pts[h[e]], pts[h[e+1]]
			for i := h[e] + 1; i < h[e+1]; i++ {
				if Cross(a, b, pts[i]) > 0 {
					return false // interior point above a hull edge
				}
			}
		}
		// Hull must be convex from above: consecutive slopes strictly
		// decreasing.
		for e := 0; e+2 < len(h); e++ {
			if CompareSlopes(pts[h[e]], pts[h[e+1]], pts[h[e+2]]) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(nil); err == nil {
		t.Errorf("empty point set accepted")
	}
	if _, err := NewTree([]Point{{0, 0}, {0, 1}}); err == nil {
		t.Errorf("equal X accepted")
	}
	if _, err := NewTree([]Point{{1, 0}, {0, 1}}); err == nil {
		t.Errorf("decreasing X accepted")
	}
}

func TestTreeInitialHullMatchesMonotoneChain(t *testing.T) {
	pts := []Point{{0, 0}, {1, 2}, {2, 1}, {3, 4}, {4, 3}, {5, 5}, {6, 0}}
	tree, err := NewTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cur() != 0 {
		t.Fatalf("fresh tree should hold U_0, got U_%d", tree.Cur())
	}
	got := tree.HullLeftToRight()
	want := UpperHull(pts)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("U_0 = %v, want %v", got, want)
	}
}

func TestTreeRestorationMatchesMonotoneChainEveryStep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) + 2
		pts := make([]Point, n)
		x := 0.0
		for i := range pts {
			x += 1 + rng.Float64()
			pts[i] = Point{X: x, Y: rng.NormFloat64() * 5}
		}
		tree, err := NewTree(pts)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < n; m++ {
			got := tree.HullLeftToRight()
			wantRel := UpperHull(pts[m:])
			want := make([]int, len(wantRel))
			for i, idx := range wantRel {
				want[i] = idx + m
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: U_%d = %v, want %v", trial, m, got, want)
			}
			// pos must be consistent with the stack.
			for p := 0; p < tree.StackLen(); p++ {
				if tree.Pos(tree.NodeAt(p)) != p {
					t.Fatalf("pos inconsistent at stack position %d", p)
				}
			}
			if m < n-1 {
				tree.Advance()
			}
		}
	}
}

func TestTreeAdvanceToAndPanics(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 0}, {3, 2}}
	tree, _ := NewTree(pts)
	tree.AdvanceTo(2)
	if tree.Cur() != 2 {
		t.Fatalf("AdvanceTo(2) left tree at %d", tree.Cur())
	}
	got := tree.HullLeftToRight()
	if !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("U_2 = %v, want [2 3]", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("rewind should panic")
			}
		}()
		tree.AdvanceTo(0)
	}()
	tree.AdvanceTo(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Advance past end should panic")
			}
		}()
		tree.Advance()
	}()
}

func TestTreePointAccessors(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}}
	tree, _ := NewTree(pts)
	if tree.NumPoints() != 2 {
		t.Errorf("NumPoints = %d", tree.NumPoints())
	}
	if tree.Point(1) != (Point{1, 1}) {
		t.Errorf("Point(1) = %v", tree.Point(1))
	}
	if tree.Pos(0) == -1 || tree.Pos(1) == -1 {
		t.Errorf("both points should be on U_0 of a 2-point set")
	}
}

func TestTreeBranchStacksDisjointCover(t *testing.T) {
	// Every node is on U_0 or in exactly one branch stack D_i — the
	// convex hull tree is a partition of the nodes.
	rng := rand.New(rand.NewSource(7))
	n := 200
	pts := make([]Point, n)
	x := 0.0
	for i := range pts {
		x += 1 + rng.Float64()
		pts[i] = Point{X: x, Y: rng.NormFloat64()}
	}
	tree, err := NewTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, n)
	for _, idx := range tree.HullLeftToRight() {
		seen[idx]++
	}
	for i := 0; i < n; i++ {
		for _, idx := range tree.dBuf[tree.dOff[i+1]:tree.dOff[i]] {
			seen[idx]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("node %d appears %d times across U_0 and branches, want exactly 1", i, c)
		}
	}
}

// TestTreeCopyFromSharesArenaReadOnly: sweeps over copies of one
// prepared tree see every suffix hull the source would, concurrently,
// and a copy's later Init (over other points) leaves the shared branch
// arena untouched, so the source keeps serving copies.
func TestTreeCopyFromSharesArenaReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(n int) []Point {
		pts := make([]Point, n)
		x := 0.0
		for i := range pts {
			x += 1 + rng.Float64()
			pts[i] = Point{X: x, Y: rng.NormFloat64()}
		}
		return pts
	}
	pts := mk(300)
	src, err := NewTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(tr *Tree) {
		for m := 0; m < len(pts); m++ {
			tr.AdvanceTo(m)
			if got, want := tr.HullLeftToRight(), UpperHull(pts[m:]); len(got) != len(want) {
				t.Errorf("U_%d: %d nodes, want %d", m, len(got), len(want))
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr Tree
			for r := 0; r < 3; r++ {
				tr.CopyFrom(src)
				sweep(&tr)
			}
		}()
	}
	wg.Wait()
	// A copy re-Inited over a smaller problem, one the shared arena could
	// hold, must still build its own.
	var tr Tree
	tr.CopyFrom(src)
	tr.AdvanceTo(100)
	if err := tr.Init(mk(250)); err != nil {
		t.Fatal(err)
	}
	tr.AdvanceTo(249)
	tr.CopyFrom(src)
	sweep(&tr)
	if src.Cur() != 0 || len(src.stack) != len(UpperHull(pts)) {
		t.Fatalf("source tree changed: cur %d, %d stack nodes", src.Cur(), len(src.stack))
	}
}

// Cur returns the index m such that the stack currently holds U_m.
func (t *Tree) Cur() int { return t.cur }

// NumPoints returns the number of points the tree was built over.
func (t *Tree) NumPoints() int { return len(t.pts) }

// HullLeftToRight returns the current hull's point indices from the
// leftmost node (Q_cur) to the rightmost (Q_{n−1}).
func (t *Tree) HullLeftToRight() []int {
	out := make([]int, len(t.stack))
	for i := range out {
		out[i] = t.stack[len(t.stack)-1-i]
	}
	return out
}

// Point returns the coordinates of point index i.
func (t *Tree) Point(i int) Point { return t.pts[i] }

// NewTree runs the preparatory phase over pts into a fresh Tree.
func NewTree(pts []Point) (*Tree, error) {
	t := &Tree{}
	if err := t.Init(pts); err != nil {
		return nil, err
	}
	return t, nil
}
