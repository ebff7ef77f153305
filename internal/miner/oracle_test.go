package miner

import (
	"fmt"
	"math"

	"optrule/internal/bucketing"
	"optrule/internal/region"
	"optrule/internal/relation"
)

// Test oracles: pre-session pipelines kept only to pin the session
// engine's output in differential tests.

// mine2DPerPair is the legacy single-pair pipeline: two independent
// sampling passes (one per axis), one grid-counting scan, and the
// serial rectangle sweep — three relation scans per pair where the
// fused engine pays two TOTAL for any number of pairs. It is the
// differential-testing reference for Mine2D/MineAll2D, which must
// produce rule-for-rule identical output.
func mine2DPerPair(rel relation.Relation, numericA, numericB, objective string, objectiveValue bool,
	kind RuleKind, gridSide int, cfg Config) (*Rule2D, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if gridSide == 0 {
		gridSide = DefaultGridSide
	}
	if gridSide < 1 {
		return nil, fmt.Errorf("miner: grid side %d must be positive", gridSide)
	}
	s := rel.Schema()
	aAttr := s.Index(numericA)
	if aAttr < 0 || s[aAttr].Kind != relation.Numeric {
		return nil, fmt.Errorf("miner: %q is not a numeric attribute", numericA)
	}
	bAttr := s.Index(numericB)
	if bAttr < 0 || s[bAttr].Kind != relation.Numeric {
		return nil, fmt.Errorf("miner: %q is not a numeric attribute", numericB)
	}
	if aAttr == bAttr {
		return nil, fmt.Errorf("miner: the two numeric attributes must differ")
	}
	objAttr := s.Index(objective)
	if objAttr < 0 || s[objAttr].Kind != relation.Boolean {
		return nil, fmt.Errorf("miner: %q is not a Boolean attribute", objective)
	}
	if rel.NumTuples() == 0 {
		return nil, fmt.Errorf("miner: empty relation")
	}

	rngA := attrRNG(cfg.Seed, aAttr)
	boundsA, err := bucketing.SampledBoundaries(rel, aAttr, gridSide, cfg.SampleFactor, rngA)
	if err != nil {
		return nil, err
	}
	rngB := attrRNG(cfg.Seed, bAttr)
	boundsB, err := bucketing.SampledBoundaries(rel, bAttr, gridSide, cfg.SampleFactor, rngB)
	if err != nil {
		return nil, err
	}

	grid, err := region.NewGrid(boundsA.NumBuckets(), boundsB.NumBuckets())
	if err != nil {
		return nil, err
	}
	// Per-axis observed extremes, for reporting value ranges.
	minA := make([]float64, boundsA.NumBuckets())
	maxA := make([]float64, boundsA.NumBuckets())
	minB := make([]float64, boundsB.NumBuckets())
	maxB := make([]float64, boundsB.NumBuckets())
	for i := range minA {
		minA[i], maxA[i] = math.Inf(1), math.Inf(-1)
	}
	for i := range minB {
		minB[i], maxB[i] = math.Inf(1), math.Inf(-1)
	}
	n, hits := 0, 0
	cols := relation.ColumnSet{Numeric: []int{aAttr, bAttr}, Bool: []int{objAttr}}
	err = rel.Scan(cols, func(batch *relation.Batch) error {
		for row := 0; row < batch.Len; row++ {
			a := batch.Numeric[0][row]
			b := batch.Numeric[1][row]
			if math.IsNaN(a) || math.IsNaN(b) {
				continue
			}
			ra := boundsA.Locate(a)
			cb := boundsB.Locate(b)
			grid.U[ra][cb]++
			n++
			if batch.Bool[0][row] == objectiveValue {
				grid.V[ra][cb]++
				hits++
			}
			if a < minA[ra] {
				minA[ra] = a
			}
			if a > maxA[ra] {
				maxA[ra] = a
			}
			if b < minB[cb] {
				minB[cb] = b
			}
			if b > maxB[cb] {
				maxB[cb] = b
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("miner: no tuples with finite (%s, %s) values", numericA, numericB)
	}

	var rect region.Rect
	var ok bool
	switch kind {
	case OptimizedConfidence:
		rect, ok, err = region.OptimalRectConfidence(grid, cfg.MinSupport*float64(n))
	case OptimizedSupport:
		rect, ok, err = region.OptimalRectSupport(grid, cfg.MinConfidence)
	case OptimizedGain:
		rect, ok, err = region.MaxGainRect(grid, cfg.MinConfidence)
		if err == nil && ok && rect.Gain <= 0 {
			ok = false // no rectangle beats the threshold anywhere
		}
	default:
		return nil, fmt.Errorf("miner: unknown rule kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}

	out := &Rule2D{
		Kind:           kind,
		NumericA:       numericA,
		NumericB:       numericB,
		Objective:      objective,
		ObjectiveValue: objectiveValue,
		Support:        float64(rect.Count) / float64(n),
		Count:          rect.Count,
		Confidence:     rect.Conf,
		Baseline:       float64(hits) / float64(n),
		Gain:           rect.Gain,
		GridRows:       grid.Rows(),
		GridCols:       grid.Cols(),
	}
	// Observed value ranges over the rectangle's rows/columns; empty
	// rows or columns inside the rectangle contribute ±Inf extremes that
	// min/max absorb naturally.
	out.LowA, out.HighA = math.Inf(1), math.Inf(-1)
	for r := rect.R1; r <= rect.R2; r++ {
		if minA[r] < out.LowA {
			out.LowA = minA[r]
		}
		if maxA[r] > out.HighA {
			out.HighA = maxA[r]
		}
	}
	out.LowB, out.HighB = math.Inf(1), math.Inf(-1)
	for c := rect.C1; c <= rect.C2; c++ {
		if minB[c] < out.LowB {
			out.LowB = minB[c]
		}
		if maxB[c] > out.HighB {
			out.HighB = maxB[c]
		}
	}
	return out, nil
}

// mineRegionPerPair is the legacy single-pair region pipeline: two
// sampling passes plus one counting scan, then the serial DP kernels.
// It is the differential-testing reference for the session's region
// path (mineRegion), which must produce rule-for-rule identical output.
func mineRegionPerPair(rel relation.Relation, numericA, numericB, objective string,
	objectiveValue bool, gridSide int, cfg Config, class RegionClass) (*RegionRule, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if gridSide == 0 {
		gridSide = DefaultGridSide
	}
	if gridSide < 1 {
		return nil, fmt.Errorf("miner: grid side %d must be positive", gridSide)
	}
	s := rel.Schema()
	aAttr := s.Index(numericA)
	if aAttr < 0 || s[aAttr].Kind != relation.Numeric {
		return nil, fmt.Errorf("miner: %q is not a numeric attribute", numericA)
	}
	bAttr := s.Index(numericB)
	if bAttr < 0 || s[bAttr].Kind != relation.Numeric {
		return nil, fmt.Errorf("miner: %q is not a numeric attribute", numericB)
	}
	if aAttr == bAttr {
		return nil, fmt.Errorf("miner: the two numeric attributes must differ")
	}
	objAttr := s.Index(objective)
	if objAttr < 0 || s[objAttr].Kind != relation.Boolean {
		return nil, fmt.Errorf("miner: %q is not a Boolean attribute", objective)
	}
	if rel.NumTuples() == 0 {
		return nil, fmt.Errorf("miner: empty relation")
	}

	rngA := attrRNG(cfg.Seed, aAttr)
	boundsA, err := bucketing.SampledBoundaries(rel, aAttr, gridSide, cfg.SampleFactor, rngA)
	if err != nil {
		return nil, err
	}
	rngB := attrRNG(cfg.Seed, bAttr)
	boundsB, err := bucketing.SampledBoundaries(rel, bAttr, gridSide, cfg.SampleFactor, rngB)
	if err != nil {
		return nil, err
	}
	grid, err := region.NewGrid(boundsA.NumBuckets(), boundsB.NumBuckets())
	if err != nil {
		return nil, err
	}
	// Per-row observed extremes of A (for band value ranges).
	minA := make([]float64, boundsA.NumBuckets())
	maxA := make([]float64, boundsA.NumBuckets())
	for i := range minA {
		minA[i], maxA[i] = math.Inf(1), math.Inf(-1)
	}
	n, hits := 0, 0
	err = rel.Scan(relation.ColumnSet{Numeric: []int{aAttr, bAttr}, Bool: []int{objAttr}},
		func(batch *relation.Batch) error {
			for row := 0; row < batch.Len; row++ {
				a := batch.Numeric[0][row]
				b := batch.Numeric[1][row]
				if math.IsNaN(a) || math.IsNaN(b) {
					continue
				}
				ra := boundsA.Locate(a)
				cb := boundsB.Locate(b)
				grid.U[ra][cb]++
				n++
				if batch.Bool[0][row] == objectiveValue {
					grid.V[ra][cb]++
					hits++
				}
				if a < minA[ra] {
					minA[ra] = a
				}
				if a > maxA[ra] {
					maxA[ra] = a
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("miner: no tuples with finite (%s, %s) values", numericA, numericB)
	}

	var xm region.XMonotoneRegion
	var ok bool
	switch class {
	case XMonotoneClass:
		xm, ok, err = region.MaxGainXMonotone(grid, cfg.MinConfidence)
	case RectilinearConvexClass:
		xm, ok, err = region.MaxGainRectilinearConvex(grid, cfg.MinConfidence)
	default:
		return nil, fmt.Errorf("miner: region class %v not supported here (rectangles use Mine2D)", class)
	}
	if err != nil {
		return nil, err
	}
	if !ok || xm.Gain <= 0 {
		return nil, nil
	}
	out := &RegionRule{
		Class:          class,
		NumericA:       numericA,
		NumericB:       numericB,
		Objective:      objective,
		ObjectiveValue: objectiveValue,
		Support:        float64(xm.Count) / float64(n),
		Count:          xm.Count,
		Confidence:     xm.Conf,
		Baseline:       float64(hits) / float64(n),
		Gain:           xm.Gain,
	}
	for _, ci := range xm.Columns {
		bLo, bHi := boundsB.BucketRange(ci.Col)
		band := RegionBand{BLo: bLo, BHi: bHi, ALo: math.Inf(1), AHi: math.Inf(-1)}
		for r := ci.Lo; r <= ci.Hi; r++ {
			if minA[r] < band.ALo {
				band.ALo = minA[r]
			}
			if maxA[r] > band.AHi {
				band.AHi = maxA[r]
			}
		}
		out.Bands = append(out.Bands, band)
	}
	return out, nil
}
