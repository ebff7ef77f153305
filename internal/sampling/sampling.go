// Package sampling implements the random sampling primitives used by
// the bucketing step (Algorithm 3.1): uniform sampling with replacement
// from a relation of known size, realized as point reads at sorted
// indices, or as one sequential scan when distinct values are tracked.
//
// The paper's analysis (Section 3.2) assumes each sample point is drawn
// independently and uniformly at random *with replacement*; the indexed
// sampler below preserves exactly that distribution while touching the
// underlying data in storage order only.
package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"optrule/internal/relation"
)

// intHoldsFloat64 reports whether an int can carry a float64's bits.
const intHoldsFloat64 = bits.UintSize == 64

// WithReplacementIndices draws s indices uniformly at random with
// replacement from [0, n) and returns them sorted ascending. The sorted
// order lets a caller fetch the sampled tuples in one sequential pass.
//
// The indices are generated already sorted in O(s), via the classic
// exponential-spacings construction: the running sums of s+1 iid
// Exp(1) variables, normalized by their total, are distributed exactly
// as the order statistics of s iid Uniform(0,1) draws. This replaces
// the draw-then-sort approach (O(s log s)), whose sort dominated the
// sampling phase's CPU profile; the sampled-index distribution is
// unchanged.
func WithReplacementIndices(rng *rand.Rand, n, s int) ([]int, error) {
	if s < 0 {
		return nil, fmt.Errorf("sampling: negative sample size %d", s)
	}
	idx := make([]int, s)
	if err := drawIndices(rng, n, idx); err != nil {
		return nil, err
	}
	return idx, nil
}

// drawIndices is WithReplacementIndices into the caller's buffer: it
// fills idx with len(idx) sorted with-replacement draws from [0, n),
// consuming exactly the random stream WithReplacementIndices(rng, n,
// len(idx)) would.
func drawIndices(rng *rand.Rand, n int, idx []int) error {
	if n <= 0 {
		return fmt.Errorf("sampling: population size %d must be positive", n)
	}
	if len(idx) == 0 {
		return nil
	}
	// idx first holds the running sums themselves, as float64 bit
	// patterns, so the draw needs no second array. A 32-bit int cannot
	// hold one; there the sums get their own array.
	var cum []float64
	if !intHoldsFloat64 {
		cum = make([]float64, len(idx))
	}
	total := 0.0
	for i := range idx {
		total += rng.ExpFloat64()
		if intHoldsFloat64 {
			idx[i] = int(math.Float64bits(total))
		} else {
			cum[i] = total
		}
	}
	total += rng.ExpFloat64()
	scale := float64(n) / total
	for i := range idx {
		c := math.Float64frombits(uint64(idx[i]))
		if !intHoldsFloat64 {
			c = cum[i]
		}
		k := int(c * scale)
		if k >= n {
			k = n - 1 // guard the half-open interval against rounding
		}
		idx[i] = k
	}
	return nil
}

// PointSample draws a with-replacement sample of len(out) values of the
// numeric attribute attr by point reads: it fills idx (len(idx) ==
// len(out)) with the sorted indices drawIndices draws from rng and
// reads those rows into out. The values are exactly the sample
// ColumnWithReplacement(rel, attr, len(out), rng) scans for, at 8
// counted bytes per unique row instead of a scan to the largest index,
// which lands within ~n/S rows of the end. An empty sample draws
// nothing and reads nothing. The buffers are the caller's, so one
// worker can reuse them for every sample it draws.
func PointSample(rel relation.Relation, attr int, rng *rand.Rand, idx []int, out []float64) error {
	if len(idx) != len(out) {
		return fmt.Errorf("sampling: %d indices but %d outputs", len(idx), len(out))
	}
	if err := drawIndices(rng, rel.NumTuples(), idx); err != nil {
		return err
	}
	if len(idx) == 0 {
		return nil
	}
	return rel.ReadNumericPoints(attr, idx, out)
}

// ColumnWithReplacement draws a uniform with-replacement sample of size
// s from the numeric attribute at schema position attr, using a single
// sequential scan of rel. The returned values are in no particular
// order with respect to the underlying distribution (they follow the
// sorted index order), which is irrelevant to the bucketing step since
// the sample is sorted immediately afterwards.
//
// The sampled indices are sorted, so the scan is the range [0, largest
// index], and rows past it are never read: on the v2 columnar format
// the read-ahead pipeline skips every block group past the last
// sampled index instead of fetching it.
func ColumnWithReplacement(rel relation.Relation, attr int, s int, rng *rand.Rand) ([]float64, error) {
	n := rel.NumTuples()
	idx, err := WithReplacementIndices(rng, n, s)
	if err != nil {
		return nil, err
	}
	limit := 0
	if s > 0 {
		limit = idx[s-1] + 1
	}
	out := make([]float64, 0, s)
	next := 0 // next position in idx to satisfy
	at := 0   // global row number of the batch start
	err = rel.ScanRange(0, limit, relation.ColumnSet{Numeric: []int{attr}}, func(b *relation.Batch) error {
		hi := at + b.Len
		for next < len(idx) && idx[next] < hi {
			v := b.Numeric[0][idx[next]-at]
			out = append(out, v)
			next++
			// Duplicated indices (with-replacement draws) each contribute
			// one sample point; emit repeats without re-reading.
			for next < len(idx) && idx[next] == idx[next-1] {
				out = append(out, v)
				next++
			}
		}
		at = hi
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) != s {
		return nil, fmt.Errorf("sampling: drew %d of %d requested samples", len(out), s)
	}
	return out, nil
}

// errDone aborts the tracking scan once every sample is satisfied and
// every distinct tracker overflowed.
var errDone = fmt.Errorf("sampling: done")

// MultiSample is the output of the fused sampling pass for one attribute.
type MultiSample struct {
	// Sample is the with-replacement sample in sorted-index order,
	// identical to what ColumnWithReplacement would have drawn from the
	// same rng.
	Sample []float64
	// Distinct is the attribute's sorted distinct finite value set, only
	// populated when distinct tracking was requested and the attribute
	// stayed within the tracking limit (and contained no NaN values);
	// nil otherwise.
	Distinct []float64
}

// ColumnRequest is one attribute's share of a fused sampling scan: a
// with-replacement sample of size S driven by Rng, plus optional
// distinct-value tracking for the finest-bucket path. Requests are
// independent — different attributes may sample at different sizes in
// the same scan, and the same attribute may appear more than once
// (e.g. a 1000-bucket 1-D sample and a 64-bucket 2-D grid sample, each
// consuming its own fresh stream).
type ColumnRequest struct {
	Attr          int
	S             int
	Rng           *rand.Rand
	TrackDistinct int // 0 = off
}

// MultiColumnRequests is the exact-domain sampling pass: ONE scan of
// the relation draws every request's sample and records the distinct
// values of the requests that track them (Definition 2.5's finest
// buckets). Every request draws exactly the stream
// ColumnWithReplacement(rel, req.Attr, req.S, req.Rng) would, so
// per-request samples stay bit-identical to the unfused path.
//
// An attribute's Distinct slice is populated only if it has at most
// TrackDistinct distinct finite values and no NaNs. A live tracker
// needs every row; the scan stops once every sample is satisfied and
// every tracker overflowed. A set with no tracking request samples
// cheaper by point reads (PointSample), and requests needing no rows
// at all (S = 0, no tracking) trigger no read.
func MultiColumnRequests(rel relation.Relation, reqs []ColumnRequest) ([]MultiSample, error) {
	n := rel.NumTuples()
	out := make([]MultiSample, len(reqs))
	idx := make([][]int, len(reqs))
	next := make([]int, len(reqs))
	limit := 0
	anyTracking := false
	for k, req := range reqs {
		ix, err := WithReplacementIndices(req.Rng, n, req.S)
		if err != nil {
			return nil, err
		}
		idx[k] = ix
		if len(ix) > 0 && ix[len(ix)-1]+1 > limit {
			limit = ix[len(ix)-1] + 1
		}
		if req.TrackDistinct > 0 {
			anyTracking = true
		}
	}
	if limit == 0 && !anyTracking {
		return out, nil // nothing needs any row
	}
	// The scan reads each requested column once even when several
	// requests share an attribute.
	uniq := make([]int, 0, len(reqs))
	colOf := make([]int, len(reqs))
	pos := map[int]int{}
	for k, req := range reqs {
		p, ok := pos[req.Attr]
		if !ok {
			p = len(uniq)
			pos[req.Attr] = p
			uniq = append(uniq, req.Attr)
		}
		colOf[k] = p
	}
	type distinct struct {
		seen     map[float64]struct{}
		overflow bool
	}
	dist := make([]distinct, len(reqs))
	for k, req := range reqs {
		out[k].Sample = make([]float64, 0, req.S)
		if req.TrackDistinct > 0 {
			dist[k].seen = make(map[float64]struct{})
		}
	}
	at := 0 // global row number of the batch start
	err := rel.Scan(relation.ColumnSet{Numeric: uniq}, func(b *relation.Batch) error {
		pending := false
		tracking := false
		for k := range reqs {
			col := b.Numeric[colOf[k]]
			ix, nx := idx[k], next[k]
			hi := at + b.Len
			// Duplicated indices (with-replacement draws) each contribute
			// one sample point; the loop condition re-admits them.
			for nx < len(ix) && ix[nx] < hi {
				out[k].Sample = append(out[k].Sample, col[ix[nx]-at])
				nx++
			}
			next[k] = nx
			if nx < len(ix) {
				pending = true
			}
			if dist[k].seen != nil && !dist[k].overflow {
				tracking = true
				d := &dist[k]
				for _, v := range col[:b.Len] {
					if math.IsNaN(v) {
						// NaN carries no order information and would make
						// finest-bucket cut points ill-defined; treat the
						// attribute as untrackable.
						d.overflow = true
						break
					}
					if _, ok := d.seen[v]; !ok {
						d.seen[v] = struct{}{}
						if len(d.seen) > reqs[k].TrackDistinct {
							d.overflow = true
							break
						}
					}
				}
			}
		}
		at += b.Len
		// Abort once every sample is satisfied and no request still
		// tracks distinct values (a request whose tracker overflowed
		// — or that started the batch overflowed — needs no more rows).
		if !pending && !tracking {
			return errDone
		}
		return nil
	})
	if err != nil && err != errDone {
		return nil, err
	}
	for k, req := range reqs {
		if len(out[k].Sample) != req.S {
			return nil, fmt.Errorf("sampling: attribute %d: drew %d of %d requested samples", req.Attr, len(out[k].Sample), req.S)
		}
		if dist[k].seen != nil && !dist[k].overflow && len(dist[k].seen) > 0 {
			values := make([]float64, 0, len(dist[k].seen))
			for v := range dist[k].seen {
				values = append(values, v)
			}
			sort.Float64s(values)
			out[k].Distinct = values
		}
	}
	return out, nil
}
