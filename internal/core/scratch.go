package core

import "optrule/internal/hull"

// Scratch pools the per-call working storage of the Section 4 solvers:
// prefix-sum tables, the gain table, the effective-index list, the hull
// points, and the hull tree arena. One solver call allocates a few
// M-sized slices; the 2-D rectangle sweep makes O(M²) such calls per
// grid, so callers there keep one Scratch per worker and use the
// *Scratch solver variants, which reuse the buffers across calls.
//
// A Scratch is NOT safe for concurrent use; give each goroutine its
// own. The zero value is ready to use. A nil *Scratch allocates fresh
// storage on every call; the plain entry points (OptimalSlopePair,
// OptimalSupportPair) are the *Scratch variants with a nil Scratch, so
// each solver has one body.
type Scratch struct {
	pu   []int
	pv   []float64
	f    []float64
	eff  []int
	pts  []hull.Point
	tree hull.Tree
}

// prefixes computes the cumulative tables PU, PV in sc's buffers; a nil
// sc allocates them.
func (sc *Scratch) prefixes(u []int, v []float64) (pu []int, pv []float64) {
	if sc == nil {
		return prefixes(u, v, nil, nil)
	}
	sc.pu, sc.pv = prefixes(u, v, sc.pu, sc.pv)
	return sc.pu, sc.pv
}

// gainPrefix computes the cumulative gain table F in sc's buffer; a nil
// sc allocates it.
func (sc *Scratch) gainPrefix(u []int, v []float64, theta float64) []float64 {
	if sc == nil {
		return gainPrefix(u, v, theta, nil)
	}
	sc.f = gainPrefix(u, v, theta, sc.f)
	return sc.f
}

// effective returns an empty effective-index list with room for m
// indices.
func (sc *Scratch) effective(m int) []int {
	if sc == nil {
		return make([]int, 0, m)
	}
	if cap(sc.eff) < m {
		sc.eff = make([]int, 0, m)
	}
	return sc.eff[:0]
}

// points returns an n-point buffer for the hull points Q_k.
func (sc *Scratch) points(n int) []hull.Point {
	if sc == nil {
		return make([]hull.Point, n)
	}
	if cap(sc.pts) < n {
		sc.pts = make([]hull.Point, n)
	}
	return sc.pts[:n]
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
