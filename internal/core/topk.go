package core

import "fmt"

// Top-K disjoint optimized ranges: a practical extension of the paper's
// single-range optimization. After reporting the optimal range, the
// natural follow-up question is "and where is the next such cluster?".
// We answer it greedily: report the optimal range, remove its buckets,
// and re-optimize independently on the left and right remainders, until
// k ranges are found or no remaining segment has a qualifying range.
// Each emitted range is optimal within its segment, and all ranges are
// pairwise disjoint. Worst-case O(k·M) time.

// segment is a contiguous bucket interval with its cached best pair.
type segment struct {
	lo, hi int // inclusive bucket bounds within the original arrays
	pair   Pair
	ok     bool
}

// solveSegment runs solve on p's buckets lo..hi and rebases the
// result. The whole range is solved over p itself; a proper sub-range
// is prepared into sc first.
func solveSegment(p *Prepared, lo, hi int, sc *Scratch,
	solve func(*Prepared) (Pair, bool, error)) (segment, error) {
	seg := segment{lo: lo, hi: hi}
	if lo > hi {
		return seg, nil
	}
	q := p
	if lo > 0 || hi < len(p.U)-1 {
		var err error
		if q, err = sc.Prepare(p.U[lo:hi+1], p.V[lo:hi+1]); err != nil {
			return seg, err
		}
	}
	pr, ok, err := solve(q)
	if err != nil {
		return seg, err
	}
	if ok {
		pr.S += lo
		pr.T += lo
		seg.pair = pr
		seg.ok = true
	}
	return seg, nil
}

// topK runs the greedy disjoint-range loop with the given per-segment
// solver and a comparator that returns true when a is strictly better
// than b. p must not live in sc: the segments after the first are
// prepared into sc.
func topK(p *Prepared, k int, sc *Scratch,
	solve func(*Prepared) (Pair, bool, error),
	better func(a, b Pair) bool) ([]Pair, error) {
	if p == &sc.prep {
		return nil, fmt.Errorf("core: top-k over a Prepared that lives in its own Scratch")
	}
	if k <= 0 {
		return nil, nil
	}
	first, err := solveSegment(p, 0, len(p.U)-1, sc, solve)
	if err != nil {
		return nil, err
	}
	segs := []segment{first}
	var out []Pair
	for len(out) < k {
		best := -1
		for i, s := range segs {
			if !s.ok {
				continue
			}
			if best < 0 || better(s.pair, segs[best].pair) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		chosen := segs[best]
		out = append(out, chosen.pair)
		// Split the winning segment around the emitted range.
		segs = append(segs[:best], segs[best+1:]...)
		left, err := solveSegment(p, chosen.lo, chosen.pair.S-1, sc, solve)
		if err != nil {
			return nil, err
		}
		if left.ok {
			segs = append(segs, left)
		}
		right, err := solveSegment(p, chosen.pair.T+1, chosen.hi, sc, solve)
		if err != nil {
			return nil, err
		}
		if right.ok {
			segs = append(segs, right)
		}
	}
	return out, nil
}

// TopKSlopePairs returns up to k pairwise-disjoint bucket ranges of
// p's buckets in decreasing confidence order, each ample (support
// count >= minSupCount) and each the optimal slope pair of the segment
// it was drawn from. The first, whole-range segment sweeps p's
// prepared hull; the sub-range segments are prepared into sc.
func (p *Prepared) TopKSlopePairs(minSupCount float64, k int, sc *Scratch) ([]Pair, error) {
	solve := func(q *Prepared) (Pair, bool, error) {
		return q.OptimalSlopePair(minSupCount, sc)
	}
	better := func(a, b Pair) bool {
		// Higher confidence first; ties by larger support.
		la := a.SumV * float64(b.Count)
		lb := b.SumV * float64(a.Count)
		if la != lb {
			return la > lb
		}
		return a.Count > b.Count
	}
	return topK(p, k, sc, solve, better)
}

// TopKSupportPairs returns up to k pairwise-disjoint bucket ranges of
// p's buckets in decreasing support order, each confident (average >=
// theta) and each the optimal support pair of the segment it was drawn
// from; sc as for TopKSlopePairs.
func (p *Prepared) TopKSupportPairs(theta float64, k int, sc *Scratch) ([]Pair, error) {
	solve := func(q *Prepared) (Pair, bool, error) {
		return q.OptimalSupportPair(theta, sc)
	}
	better := func(a, b Pair) bool { return a.Count > b.Count }
	return topK(p, k, sc, solve, better)
}
