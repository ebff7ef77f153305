package bucketing

import (
	"fmt"
	"math"
	"math/rand"

	"optrule/internal/relation"
	"optrule/internal/sampling"
	"optrule/internal/stats"
)

// Fused multi-attribute sampling. The paper's premise is that the
// database is far larger than main memory, so the sequential-scan count
// is the currency of performance: building boundaries for d numeric
// attributes with d independent SampledBoundaries calls reads the
// relation d times. The functions below draw every attribute's sample
// from ONE sequential scan; together with the plan layer's fused
// counting scan, that is what lets the whole MineAll pipeline cost two
// scans regardless of how many numeric attributes the relation has.

// BoundarySpec is one attribute's boundary request in a fused sampling
// scan: M almost equi-depth buckets from a sample of M·SampleFactor
// values, with the finest-bucket promotion (Definition 2.5) when
// ExactDomainLimit > 0. Specs are independent: the same scan can build
// a 1000-bucket 1-D bucketing and a 64-bucket 2-D grid axis, each from
// its own random stream.
type BoundarySpec struct {
	Attr             int
	M                int
	SampleFactor     int
	ExactDomainLimit int // 0 = no finest-bucket promotion
}

// MultiSampledBoundarySpecs fuses steps 1–3 of Algorithm 3.1 for
// several numeric attributes, each at its own resolution, into ONE
// sampling scan: spec k gets an independent with-replacement sample of
// M·SampleFactor values driven by rngs[k] (the stream SampledBoundaries
// would consume), and its equi-depth cut points are read off the sorted
// sample. If a spec's ExactDomainLimit > 0, the same scan also tracks
// the attribute's distinct values; one with at most that many distinct
// finite values (and no NaNs) gets finest buckets (Definition 2.5), as
// DistinctValueBoundaries would build. Every spec's result is identical
// to SampledBoundaries (or the finest-bucket path) run alone with
// rngs[k], while the relation is scanned at most once for the whole
// set.
func MultiSampledBoundarySpecs(rel relation.Relation, specs []BoundarySpec, rngs []*rand.Rand) ([]Boundaries, error) {
	if len(specs) != len(rngs) {
		return nil, fmt.Errorf("bucketing: %d specs but %d rngs", len(specs), len(rngs))
	}
	reqs := make([]sampling.ColumnRequest, len(specs))
	for k, spec := range specs {
		if spec.SampleFactor < 1 {
			return nil, fmt.Errorf("bucketing: sample factor %d must be positive", spec.SampleFactor)
		}
		if spec.M < 1 {
			return nil, fmt.Errorf("bucketing: bucket count %d must be positive", spec.M)
		}
		s := spec.M * spec.SampleFactor
		if spec.M == 1 {
			s = 0 // finest-bucket detection may still need the scan; sampling does not
		}
		reqs[k] = sampling.ColumnRequest{Attr: spec.Attr, S: s, Rng: rngs[k],
			TrackDistinct: spec.ExactDomainLimit}
	}
	out := make([]Boundaries, len(specs))
	samples, err := sampling.MultiColumnRequests(rel, reqs)
	if err != nil {
		return nil, err
	}
	for k, spec := range specs {
		if spec.ExactDomainLimit > 0 && samples[k].Distinct != nil {
			// Finest buckets: cut at every distinct value except the
			// largest, so bucket i is exactly [v_i, v_i].
			distinct := samples[k].Distinct
			bounds, err := NewBoundaries(distinct[:len(distinct)-1])
			if err != nil {
				return nil, err
			}
			out[k] = bounds
			continue
		}
		if spec.M == 1 {
			out[k] = Boundaries{}
			continue
		}
		// Missing values (NaN) carry no order information; drop them from
		// the sample so cut points stay well defined, matching
		// SampledBoundaries.
		sample := samples[k].Sample
		clean := sample[:0]
		for _, x := range sample {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return nil, fmt.Errorf("bucketing: attribute %d sampled only NaN values", spec.Attr)
		}
		stats.SortFloat64s(clean)
		bounds, err := FromSortedSample(clean, spec.M)
		if err != nil {
			return nil, err
		}
		out[k] = bounds
	}
	return out, nil
}
