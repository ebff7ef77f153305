package core

import (
	"fmt"

	"optrule/internal/hull"
)

// Prepared holds the threshold-independent inputs of the Section 4
// solvers for one bucket sequence (u, v): the sizes and values, the
// cumulative sums PU and PV, the hull points Q_k and the convex hull
// tree after Algorithm 4.1's preparatory phase. Building them is the
// part of a solve that no threshold changes. A solve over a Prepared
// runs only the threshold-dependent sweep: Algorithm 4.2's tangent
// search (OptimalSlopePair), or the gain table, effective indices and
// two-pointer of Algorithms 4.3–4.4 (OptimalSupportPair).
//
// A Prepared built by Prepare is read-only and serves any number of
// solves, concurrently, each with its own Scratch. One prepared by
// Scratch.Prepare lives in the Scratch and is valid only until the
// Scratch's next use.
type Prepared struct {
	// U and V are the bucket sizes (each at least 1) and values.
	U []int
	V []float64
	// pu and pv are the cumulative sums (see prefixes); the points
	// Q_k = (pu[k], pv[k]) are pts, and tree is their hull tree when
	// hull is set.
	pu   []int
	pv   []float64
	pts  []hull.Point
	tree hull.Tree
	hull bool
}

// Prepare validates (u, v) and builds every threshold-independent
// solver input in fresh storage. The result aliases u and v.
func Prepare(u []int, v []float64) (*Prepared, error) {
	p := &Prepared{}
	if err := p.prepare(u, v); err != nil {
		return nil, err
	}
	if err := p.buildHull(); err != nil {
		return nil, err
	}
	p.hull = true
	return p, nil
}

// PreparedBytes is the storage Prepare allocates for m buckets beyond
// the aliased sizes: the values row, both prefix tables, the hull
// points, and the hull tree's stack, positions and branch arena. Caches
// that keep prepared rows charge them this much.
func PreparedBytes(m int) int64 {
	n := int64(m) + 1
	return int64(m)*8 + // V
		n*8 + n*8 + // pu, pv
		n*16 + // pts
		n*8 + n*8 + // tree stack, positions
		(n+1)*4 + n*8 + // branch offsets, arena
		256 // headers
}

// Totals returns Σu and Σv over every bucket.
func (p *Prepared) Totals() (count int, sum float64) {
	m := len(p.U)
	return p.pu[m], p.pv[m]
}

// prepare validates (u, v) and computes the prefix sums into p's
// buffers; the hull is left to buildHull.
func (p *Prepared) prepare(u []int, v []float64) error {
	if err := validate(u, v); err != nil {
		return err
	}
	p.U, p.V = u, v
	p.pu, p.pv = prefixes(u, v, p.pu, p.pv)
	p.hull = false
	return nil
}

// buildHull computes the points Q_0 … Q_M (X strictly increasing
// because u_i >= 1) and runs Algorithm 4.1's preparatory phase over
// them in p's buffers.
func (p *Prepared) buildHull() error {
	n := len(p.pu)
	if cap(p.pts) < n {
		p.pts = make([]hull.Point, n)
	}
	p.pts = p.pts[:n]
	for k := range p.pts {
		p.pts[k] = hull.Point{X: float64(p.pu[k]), Y: p.pv[k]}
	}
	if err := p.tree.Init(p.pts); err != nil {
		return fmt.Errorf("core: building hull tree: %w", err)
	}
	return nil
}

// Scratch pools the per-call working storage of the Section 4 solvers:
// a Prepared for the …Scratch entry points (prefix sums, hull points,
// hull tree arena), the gain table, the effective-index list, and a
// sweep's copy of a shared hull tree. One solver call allocates a few
// M-sized slices; the 2-D rectangle sweep makes O(M²) such calls per
// grid and a serving session one per warm request, so callers keep a
// Scratch per worker and reuse its buffers across calls.
//
// A Scratch is NOT safe for concurrent use; give each goroutine its
// own. The zero value is ready to use. The (u, v) entry points accept
// a nil Scratch and allocate a fresh one; the Prepared methods need a
// Scratch. The plain entry points (OptimalSlopePair,
// OptimalSupportPair) are the *Scratch variants with a nil Scratch,
// and the *Scratch variants are Scratch.Prepare followed by the
// Prepared method, so each solver has one body.
type Scratch struct {
	prep Prepared
	f    []float64
	eff  []int
	tree hull.Tree
}

// Prepare validates (u, v) and prepares them into sc's own buffers for
// the Prepared solvers run with sc; the hull tree is built only when
// a confidence sweep asks for it. The result aliases u and v and is
// valid until sc's next use.
func (sc *Scratch) Prepare(u []int, v []float64) (*Prepared, error) {
	if err := sc.prep.prepare(u, v); err != nil {
		return nil, err
	}
	return &sc.prep, nil
}

// sweepTree returns a hull tree holding U_0 of p's points for one
// tangent sweep. A Prepared that sc owns builds its tree now and is
// swept in place; any other Prepared's tree is shared, so the sweep
// runs on sc's own copy of its stack and positions.
func (sc *Scratch) sweepTree(p *Prepared) (*hull.Tree, error) {
	if p == &sc.prep {
		return &p.tree, p.buildHull()
	}
	if !p.hull {
		return nil, fmt.Errorf("core: Prepared has no hull tree (prepared into another Scratch)")
	}
	sc.tree.CopyFrom(&p.tree)
	return &sc.tree, nil
}

// gainPrefix computes the cumulative gain table F of p at theta in
// sc's buffer.
func (sc *Scratch) gainPrefix(p *Prepared, theta float64) []float64 {
	sc.f = gainPrefix(p.U, p.V, theta, sc.f)
	return sc.f
}

// effective returns an empty effective-index list with room for m
// indices.
func (sc *Scratch) effective(m int) []int {
	if cap(sc.eff) < m {
		sc.eff = make([]int, 0, m)
	}
	return sc.eff[:0]
}

func intSlice(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func floatSlice(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
