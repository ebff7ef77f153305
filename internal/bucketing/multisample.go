package bucketing

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"optrule/internal/fanout"
	"optrule/internal/relation"
	"optrule/internal/sampling"
	"optrule/internal/stats"
)

// Multi-attribute sampling on the worker pool. The paper's premise is
// that the database is far larger than main memory, so the
// sequential-scan count is the currency of performance: building
// boundaries for d numeric attributes with d independent
// SampledBoundaries calls reads the relation d times. The functions
// below build every boundary set of a batch without a single scan: each
// set draws its sample by point reads at its own sorted indices, and
// the sets are drawn, sorted and cut in parallel on the fanout pool, in
// buffers each worker reuses for every set it claims. Together with the
// plan layer's fused counting scan, that is what lets the whole MineAll
// pipeline cost one scan regardless of how many numeric attributes the
// relation has. Only a batch that asks for finest buckets (Definition
// 2.5) scans to sample, once for the whole set.

// BoundarySpec is one attribute's boundary request in a sampling
// phase: M almost equi-depth buckets from a sample of M·SampleFactor
// values, with the finest-bucket promotion (Definition 2.5) when
// ExactDomainLimit > 0. Specs are independent: one phase can build
// a 1000-bucket 1-D bucketing and a 64-bucket 2-D grid axis, each from
// its own random stream.
type BoundarySpec struct {
	Attr             int
	M                int
	SampleFactor     int
	ExactDomainLimit int // 0 = no finest-bucket promotion
}

// sampleSize is the number of values the spec samples: M·SampleFactor,
// or none for a single bucket, which has no cut to place.
func (spec BoundarySpec) sampleSize() int {
	if spec.M == 1 {
		return 0
	}
	return spec.M * spec.SampleFactor
}

// MultiSampledBoundarySpecs is SampleBoundaries at runtime.GOMAXPROCS(0)
// workers, the worker count a session's plan uses by default.
func MultiSampledBoundarySpecs(rel relation.Relation, specs []BoundarySpec, rngs []*rand.Rand) ([]Boundaries, error) {
	return SampleBoundaries(rel, specs, rngs, runtime.GOMAXPROCS(0))
}

// SampleBoundaries runs steps 1–3 of Algorithm 3.1 for several numeric
// attributes, each at its own resolution, on at most workers workers:
// spec k gets an independent with-replacement sample of
// M·SampleFactor values driven by rngs[k] (the stream
// SampledBoundaries would consume), and its equi-depth cut points are
// read off the sorted sample. Each spec's result is a pure function of
// the relation's rows, the spec and rngs[k], so the boundaries are
// identical at any worker count and equal SampledBoundaries run alone
// with rngs[k].
//
// Without finest-bucket promotion the relation is never scanned: each
// spec is one point read of its sorted indices. Workers claim specs
// largest sample first, and each draws, reads, sorts and cuts in index,
// value and radix buffers it reuses for every spec it claims, so the
// phase allocates one sample set per worker plus each spec's cuts and
// locate table. If any spec has ExactDomainLimit > 0, one tracking scan
// (sampling.MultiColumnRequests) draws every spec's sample and the
// attributes' distinct values instead; a tracked attribute with at most
// that many distinct finite values (and no NaNs) gets finest buckets,
// as DistinctValueBoundaries would build. A failing phase reports the
// lowest-index failing spec's error.
func SampleBoundaries(rel relation.Relation, specs []BoundarySpec, rngs []*rand.Rand, workers int) ([]Boundaries, error) {
	if len(specs) != len(rngs) {
		return nil, fmt.Errorf("bucketing: %d specs but %d rngs", len(specs), len(rngs))
	}
	exact := false
	for _, spec := range specs {
		if spec.SampleFactor < 1 {
			return nil, fmt.Errorf("bucketing: sample factor %d must be positive", spec.SampleFactor)
		}
		if spec.M < 1 {
			return nil, fmt.Errorf("bucketing: bucket count %d must be positive", spec.M)
		}
		exact = exact || spec.ExactDomainLimit > 0
	}
	var tracked []sampling.MultiSample
	if exact {
		reqs := make([]sampling.ColumnRequest, len(specs))
		for k, spec := range specs {
			reqs[k] = sampling.ColumnRequest{Attr: spec.Attr, S: spec.sampleSize(), Rng: rngs[k],
				TrackDistinct: spec.ExactDomainLimit}
		}
		var err error
		if tracked, err = sampling.MultiColumnRequests(rel, reqs); err != nil {
			return nil, err
		}
	}
	// Largest sample first: a worker's first spec sizes its buffers for
	// every later one, and the longest tasks start before the short ones.
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return specs[b].sampleSize() - specs[a].sampleSize()
	})
	workers = max(1, min(workers, len(specs)))
	bufs := make([]sampleBuffers, workers)
	out := make([]Boundaries, len(specs))
	errs := make([]error, len(specs))
	fanout.Each(workers, len(order), func(w, i int) {
		k := order[i]
		if tracked != nil {
			out[k], errs[k] = bufs[w].cutTracked(specs[k], tracked[k])
		} else {
			out[k], errs[k] = bufs[w].sample(rel, specs[k], rngs[k])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sampleBuffers is one worker's sample set: the sorted row indices, the
// values read at them, and the radix sort's scratch. Each grows to the
// largest sample the worker draws and is reused for every later one;
// nothing a Boundaries keeps points into them (stats.EquiDepthBoundaries
// copies the cuts out).
type sampleBuffers struct {
	idx     []int
	vals    []float64
	scratch []float64
}

// sample draws spec's sample by point reads and cuts it.
func (b *sampleBuffers) sample(rel relation.Relation, spec BoundarySpec, rng *rand.Rand) (Boundaries, error) {
	s := spec.sampleSize()
	if cap(b.idx) < s {
		b.idx, b.vals = make([]int, s), make([]float64, s)
	}
	if err := sampling.PointSample(rel, spec.Attr, rng, b.idx[:s], b.vals[:s]); err != nil {
		return Boundaries{}, err
	}
	if spec.M == 1 {
		return Boundaries{}, nil
	}
	return b.cut(spec, b.vals[:s])
}

// cutTracked turns the tracking scan's sample of spec into boundaries:
// finest buckets when the attribute's distinct values were kept,
// sampled cuts otherwise.
func (b *sampleBuffers) cutTracked(spec BoundarySpec, ms sampling.MultiSample) (Boundaries, error) {
	if spec.ExactDomainLimit > 0 && ms.Distinct != nil {
		// Finest buckets: cut at every distinct value except the
		// largest, so bucket i is exactly [v_i, v_i].
		return NewBoundaries(ms.Distinct[:len(ms.Distinct)-1])
	}
	if spec.M == 1 {
		return Boundaries{}, nil
	}
	return b.cut(spec, ms.Sample)
}

// cut drops the sample's NaNs in place, sorts the rest in the worker's
// radix scratch and reads off spec.M equi-depth buckets.
func (b *sampleBuffers) cut(spec BoundarySpec, sample []float64) (Boundaries, error) {
	// Missing values (NaN) carry no order information; drop them from
	// the sample so cut points stay well defined, matching
	// SampledBoundaries.
	clean := sample[:0]
	for _, x := range sample {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 {
		return Boundaries{}, fmt.Errorf("bucketing: attribute %d sampled only NaN values", spec.Attr)
	}
	if cap(b.scratch) < len(clean) {
		b.scratch = make([]float64, len(sample))
	}
	stats.SortFloat64sBuf(clean, b.scratch[:len(clean)])
	return FromSortedSample(clean, spec.M)
}
