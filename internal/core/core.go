// Package core implements the paper's primary contribution: the
// linear-time algorithms for computing optimized association rules over
// a sequence of buckets (Section 4).
//
// Inputs are per-bucket statistics for M buckets: sizes u_0 … u_{M−1}
// (each at least 1 — use bucketing.Counts.Compact to drop empty
// buckets) and values v_0 … v_{M−1}. When v_i is the number of tuples
// in bucket i meeting the objective condition C, the two entry points
// compute the paper's optimized rules:
//
//   - OptimalSlopePair (Algorithms 4.1 + 4.2): the ample range
//     maximizing confidence — the optimized-confidence rule.
//   - OptimalSupportPair (Algorithms 4.3 + 4.4): the confident range
//     maximizing support — the optimized-support rule.
//
// When v_i is instead the sum of a target numeric attribute B over
// bucket i, the same two functions compute the maximum-average range
// and the maximum-support range of Section 5.
//
// Both functions run in O(M) time. Part of that work depends only on
// the buckets, not on the threshold: validation, the cumulative sums
// PU/PV, the hull points Q_k, and Algorithm 4.1's preparatory phase
// (the hull tree's branch stacks). Prepare does it once and returns a
// Prepared; its methods run only the threshold-dependent part —
// Algorithm 4.2's tangent sweep, or Algorithms 4.3–4.4's gain table,
// effective indices and two-pointer — so a caller that re-queries the
// same buckets at new thresholds (a serving session's cached
// statistics) pays only the sweep. The (u, v) entry points prepare
// into a Scratch and run the same methods: each solver has one body.
//
// Quadratic reference implementations (NaiveOptimalSlopePair,
// NaiveOptimalSupportPair) are provided both as the baselines of the
// paper's Figures 10 and 11 and as oracles for property testing.
// Bentley's Kadane-style maximum-gain range is included to demonstrate
// (as Section 4.2 notes) that gain maximization is NOT equivalent to
// the optimized-support problem.
package core

import "fmt"

// Pair is an inclusive range [S, T] of 0-based bucket indices together
// with the support count and confidence (or average) it achieves.
type Pair struct {
	S, T  int
	Count int     // Σ u_i over [S,T] — the support in tuples
	Conf  float64 // (Σ v_i) / (Σ u_i) over [S,T]
	SumV  float64 // Σ v_i over [S,T]
}

// validate checks the bucket statistics invariants shared by every
// algorithm in this package.
func validate(u []int, v []float64) error {
	if len(u) == 0 {
		return fmt.Errorf("core: no buckets")
	}
	if len(u) != len(v) {
		return fmt.Errorf("core: %d sizes but %d values", len(u), len(v))
	}
	for i, ui := range u {
		if ui < 1 {
			return fmt.Errorf("core: bucket %d has size %d; every bucket must hold at least one tuple (compact empty buckets first)", i, ui)
		}
	}
	return nil
}

// prefixes returns cumulative sums PU, PV with PU[k] = Σ_{i<k} u_i and
// PV[k] = Σ_{i<k} v_i (lengths M+1, index 0 is zero), in the given
// buffers when they are large enough. These are the coordinates of the
// paper's points Q_k.
func prefixes(u []int, v []float64, puBuf []int, pvBuf []float64) (pu []int, pv []float64) {
	m := len(u)
	pu = intSlice(puBuf, m+1)
	pv = floatSlice(pvBuf, m+1)
	pu[0], pv[0] = 0, 0
	for i := 0; i < m; i++ {
		pu[i+1] = pu[i] + u[i]
		pv[i+1] = pv[i] + v[i]
	}
	return pu, pv
}

// makePair assembles a Pair for the bucket range [s, t] from prefix sums.
func makePair(pu []int, pv []float64, s, t int) Pair {
	count := pu[t+1] - pu[s]
	sumV := pv[t+1] - pv[s]
	return Pair{S: s, T: t, Count: count, SumV: sumV, Conf: sumV / float64(count)}
}

// cmpSlopePairs compares candidate (s1,t1) against (s2,t2) by the
// optimized-confidence objective: first confidence (slope), then
// support count. It returns +1 if the first is strictly better, −1 if
// strictly worse, 0 if tied on both. Slopes are compared by
// cross-multiplication, avoiding division.
func cmpSlopePairs(pu []int, pv []float64, s1, t1, s2, t2 int) int {
	du1 := float64(pu[t1+1] - pu[s1])
	dv1 := pv[t1+1] - pv[s1]
	du2 := float64(pu[t2+1] - pu[s2])
	dv2 := pv[t2+1] - pv[s2]
	lhs := dv1 * du2
	rhs := dv2 * du1
	switch {
	case lhs > rhs:
		return 1
	case lhs < rhs:
		return -1
	}
	switch {
	case du1 > du2:
		return 1
	case du1 < du2:
		return -1
	}
	return 0
}
