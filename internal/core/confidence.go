package core

import "optrule/internal/hull"

// OptimalSlopePair computes the optimized-confidence rule's range
// (Definition 4.2) in O(M) time using the convex hull tree of
// Algorithm 4.1 and the tangent maintenance of Algorithm 4.2.
//
// It returns the inclusive bucket range [S, T] maximizing confidence
// (Σv / Σu) among ranges whose support count Σu is at least
// minSupCount; among maximum-confidence ranges it maximizes the support
// count, per Definition 4.2. ok is false when no range is ample (the
// total count is below minSupCount).
//
// When v_i counts tuples meeting the objective condition, the result is
// the optimized-confidence rule; when v_i sums a target attribute, it
// is the maximum-average range of Section 5.
func OptimalSlopePair(u []int, v []float64, minSupCount float64) (best Pair, ok bool, err error) {
	return OptimalSlopePairScratch(u, v, minSupCount, nil)
}

// OptimalSlopePairScratch is OptimalSlopePair with pooled working
// storage; see Scratch. sc may be nil.
func OptimalSlopePairScratch(u []int, v []float64, minSupCount float64, sc *Scratch) (best Pair, ok bool, err error) {
	if sc == nil {
		sc = new(Scratch)
	}
	p, err := sc.Prepare(u, v)
	if err != nil {
		return Pair{}, false, err
	}
	return p.OptimalSlopePair(minSupCount, sc)
}

// OptimalSlopePair is the package function OptimalSlopePair over p's
// buckets: Algorithm 4.2's tangent sweep over the hull tree Algorithm
// 4.1 prepared, the only part of the solve that depends on
// minSupCount. sc holds the sweep's state.
func (p *Prepared) OptimalSlopePair(minSupCount float64, sc *Scratch) (best Pair, ok bool, err error) {
	m := len(p.U)
	pu, pv := p.pu, p.pv
	if float64(pu[m]) < minSupCount {
		return Pair{}, false, nil // not even the full range is ample
	}
	tree, err := sc.sweepTree(p)
	if err != nil {
		return Pair{}, false, err
	}
	pts := p.pts

	// L = (lm, lt): the most recently computed tangent (anchor Q_lm,
	// terminating point Q_lt). bs/bt track the best pair seen so far.
	lm, lt := -1, -1
	bs, bt := -1, -1
	r := 0 // r(anchor): one forward pointer, monotone over anchors
	for anchor := 0; anchor < m; anchor++ {
		// r(anchor) = min{ i >= anchor+1 : support(anchor+1 … i) ample }.
		if r < anchor+1 {
			r = anchor + 1
		}
		for r <= m && float64(pu[r]-pu[anchor]) < minSupCount {
			r++
		}
		if r > m {
			break // no ample range starts at this or any later anchor
		}
		tree.AdvanceTo(r)

		if lm >= 0 && hull.AboveOrOn(pts[anchor], pts[lm], pts[lt]) {
			// The tangent from Q_anchor cannot exceed L's slope; skip.
			continue
		}
		var t int
		if lt >= r {
			// L touches U_r at Q_lt (suffix hulls preserve surviving
			// nodes): counterclockwise search from Q_lt.
			t = counterclockwiseSearch(tree, pts, anchor, lt)
		} else {
			// L misses U_r entirely: clockwise search from Q_r.
			t = clockwiseSearch(tree, pts, anchor)
		}
		lm, lt = anchor, t
		if bs < 0 || cmpSlopePairs(pu, pv, anchor, t-1, bs, bt) > 0 {
			bs, bt = anchor, t-1
		}
	}
	if bs < 0 {
		return Pair{}, false, nil
	}
	return makePair(pu, pv, bs, bt), true, nil
}

// clockwiseSearch finds the terminating point of the tangent from
// Q_anchor to the current hull: starting at the hull's leftmost node
// (stack top), it walks right while the slope does not decrease, so
// ties resolve to the maximum X-coordinate as Definition 4.3 requires.
func clockwiseSearch(tree *hull.Tree, pts []hull.Point, anchor int) int {
	p := tree.StackLen() - 1
	for p > 0 {
		cur := tree.NodeAt(p)
		next := tree.NodeAt(p - 1)
		if hull.CompareSlopes(pts[anchor], pts[next], pts[cur]) >= 0 {
			p--
		} else {
			break
		}
	}
	return tree.NodeAt(p)
}

// counterclockwiseSearch finds the terminating point of the tangent
// from Q_anchor when the previous tangent's terminating point Q_from is
// still on the hull: it walks left from Q_from while the slope strictly
// improves (strict, so ties keep the maximum X-coordinate).
func counterclockwiseSearch(tree *hull.Tree, pts []hull.Point, anchor, from int) int {
	p := tree.Pos(from)
	for p < tree.StackLen()-1 {
		cur := tree.NodeAt(p)
		next := tree.NodeAt(p + 1)
		if hull.CompareSlopes(pts[anchor], pts[next], pts[cur]) > 0 {
			p++
		} else {
			break
		}
	}
	return tree.NodeAt(p)
}

// NaiveOptimalSlopePair solves the same problem by enumerating all
// O(M²) bucket ranges. It is the baseline of the paper's Figure 10 and
// the oracle for property tests; it uses the same comparison helpers as
// the fast path, so results agree exactly.
func NaiveOptimalSlopePair(u []int, v []float64, minSupCount float64) (best Pair, ok bool, err error) {
	if err := validate(u, v); err != nil {
		return Pair{}, false, err
	}
	m := len(u)
	pu, pv := prefixes(u, v, nil, nil)
	bs, bt := -1, -1
	for s := 0; s < m; s++ {
		for t := s; t < m; t++ {
			if float64(pu[t+1]-pu[s]) < minSupCount {
				continue
			}
			if bs < 0 || cmpSlopePairs(pu, pv, s, t, bs, bt) > 0 {
				bs, bt = s, t
			}
		}
	}
	if bs < 0 {
		return Pair{}, false, nil
	}
	return makePair(pu, pv, bs, bt), true, nil
}
