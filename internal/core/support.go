package core

// This file implements the optimized-support side of Section 4:
// Algorithm 4.3 (effective indices), Algorithm 4.4 (the backward
// two-pointer over effective indices using the cumulative gain table
// F), the quadratic oracle, and Bentley's maximum-gain (Kadane) range,
// which the paper discusses to show gain maximization is not equivalent
// to support optimization.

// gainPrefix returns F with F[j] = Σ_{i<j} (v_i − θ·u_i), length M+1,
// in buf when it is large enough. Every algorithm below derives range
// sums from this one table so that floating-point behaviour is
// identical between the fast path and the naive oracle.
func gainPrefix(u []int, v []float64, theta float64, buf []float64) []float64 {
	f := floatSlice(buf, len(u)+1)
	f[0] = 0
	for i := range u {
		f[i+1] = f[i] + (v[i] - theta*float64(u[i]))
	}
	return f
}

// EffectiveIndices implements Algorithm 4.3: index s (0-based) is
// effective iff avg(j … s−1) < θ for every j < s, computed with the
// running maximum-suffix-gain w in a single forward scan. Index 0 is
// always effective. The result is ascending.
func EffectiveIndices(u []int, v []float64, theta float64) ([]int, error) {
	if err := validate(u, v); err != nil {
		return nil, err
	}
	return effectiveIndices(gainPrefix(u, v, theta, nil), nil), nil
}

// effectiveIndices is Algorithm 4.3 over the cumulative gain table f
// (length M+1), appending to eff. Algorithm 4.3's running value
// w = max_{j<s} Σ_{i=j}^{s−1} g_i equals F[s] − min_{j<s} F[j]; we
// evaluate it through F (which Algorithm 4.4 precomputes anyway) so
// that effectiveness and the confidence test of the two-pointer use
// bit-identical floating-point values.
func effectiveIndices(f []float64, eff []int) []int {
	eff = append(eff, 0)
	minF := f[0]
	for s := 1; s < len(f)-1; s++ {
		if f[s-1] < minF {
			minF = f[s-1]
		}
		if f[s]-minF < 0 {
			eff = append(eff, s)
		}
	}
	return eff
}

// OptimalSupportPair computes the optimized-support rule's range
// (Definition 4.4) in O(M) time via Algorithms 4.3 and 4.4.
//
// It returns the inclusive bucket range [S, T] maximizing the support
// count Σu among ranges whose average Σv/Σu is at least theta; among
// maximum-support ranges it returns the one with the smallest S. ok is
// false when no range reaches the threshold.
//
// When v_i counts tuples meeting the objective condition and theta is
// the minimum confidence, the result is the optimized-support rule;
// when v_i sums a target attribute and theta is the minimum average, it
// is the maximum-support range of Section 5.
func OptimalSupportPair(u []int, v []float64, theta float64) (best Pair, ok bool, err error) {
	return OptimalSupportPairScratch(u, v, theta, nil)
}

// OptimalSupportPairScratch is OptimalSupportPair with pooled working
// storage; see Scratch. sc may be nil.
func OptimalSupportPairScratch(u []int, v []float64, theta float64, sc *Scratch) (best Pair, ok bool, err error) {
	if sc == nil {
		sc = new(Scratch)
	}
	p, err := sc.Prepare(u, v)
	if err != nil {
		return Pair{}, false, err
	}
	return p.OptimalSupportPair(theta, sc)
}

// OptimalSupportPair is the package function OptimalSupportPair over
// p's buckets: the gain table, effective indices and two-pointer of
// Algorithms 4.3–4.4, all of which depend on theta. sc holds their
// tables.
func (p *Prepared) OptimalSupportPair(theta float64, sc *Scratch) (best Pair, ok bool, err error) {
	m := len(p.U)
	f := sc.gainPrefix(p, theta)
	eff := effectiveIndices(f, sc.effective(m))
	pu, pv := p.pu, p.pv

	// Algorithm 4.4: scan effective indices from the largest down while
	// the top pointer i descends from M−1; Lemma 4.2 (top is
	// non-decreasing in s) makes the combined scan linear.
	bs, bt := -1, -1
	i := m - 1
	for j := len(eff) - 1; j >= 0; j-- {
		s := eff[j]
		for i >= s && f[i+1]-f[s] < 0 {
			i--
		}
		if i < s {
			continue // no confident range starts at s; smaller s may still work
		}
		// top(s) = i; candidate range [s, i]. Later candidates have
		// smaller s, so >= keeps the smallest S among equal supports.
		if bs < 0 || pu[i+1]-pu[s] >= pu[bt+1]-pu[bs] {
			bs, bt = s, i
		}
	}
	if bs < 0 {
		return Pair{}, false, nil
	}
	return makePair(pu, pv, bs, bt), true, nil
}

// NaiveOptimalSupportPair solves the same problem by enumerating all
// O(M²) ranges — the baseline of Figure 11 and the property-test
// oracle. It shares gainPrefix with the fast path so threshold
// comparisons are bit-identical.
func NaiveOptimalSupportPair(u []int, v []float64, theta float64) (best Pair, ok bool, err error) {
	if err := validate(u, v); err != nil {
		return Pair{}, false, err
	}
	m := len(u)
	pu, pv := prefixes(u, v, nil, nil)
	f := gainPrefix(u, v, theta, nil)
	bs, bt := -1, -1
	for s := 0; s < m; s++ {
		for t := s; t < m; t++ {
			if f[t+1]-f[s] < 0 {
				continue
			}
			if bs < 0 || pu[t+1]-pu[s] > pu[bt+1]-pu[bs] {
				bs, bt = s, t
			}
		}
	}
	if bs < 0 {
		return Pair{}, false, nil
	}
	return makePair(pu, pv, bs, bt), true, nil
}

// MaxGainRange is Bentley's linear-time maximum-subarray (Kadane)
// algorithm applied to the gains x_i = v_i − θ·u_i, as described at the
// end of Section 4.2. It returns the non-empty range maximizing the
// total gain. The paper's point — reproduced in the tests — is that
// this range is NOT in general the optimized-support range: a larger
// confident range with smaller gain may exist.
func MaxGainRange(u []int, v []float64, theta float64) (s, t int, gain float64, err error) {
	if err := validate(u, v); err != nil {
		return 0, 0, 0, err
	}
	// Kadane via the cumulative table: the best range ending at t is
	// F[t+1] − min_{k<=t} F[k]. Using F keeps the arithmetic identical
	// to the other algorithms in this package.
	f := gainPrefix(u, v, theta, nil)
	minIdx := 0
	s, t, gain = 0, 0, f[1]-f[0]
	for j := 0; j < len(u); j++ {
		if f[j] < f[minIdx] {
			minIdx = j
		}
		if g := f[j+1] - f[minIdx]; g > gain {
			gain = g
			s, t = minIdx, j
		}
	}
	return s, t, gain, nil
}
