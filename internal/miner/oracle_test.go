package miner

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"optrule/internal/bucketing"
	"optrule/internal/core"
	"optrule/internal/plan"
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
		rect, ok, err = region.OptimalRectConfidence(grid, cfg.MinSupport*float64(n), 1)
	case OptimizedSupport:
		rect, ok, err = region.OptimalRectSupport(grid, cfg.MinConfidence, 1)
	case OptimizedGain:
		rect, ok, err = region.MaxGainRect(grid, cfg.MinConfidence, 1)
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
		xm, ok, err = region.MaxGainXMonotone(grid, cfg.MinConfidence, 1)
	case RectilinearConvexClass:
		xm, ok, err = region.MaxGainRectilinearConvex(grid, cfg.MinConfidence, 1)
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

// attrRNG derives the deterministic random stream for one numeric
// attribute. The oracles stay boundary-identical (and therefore
// rule-identical) to the session engine only because they draw from
// the stream its sampling scan uses, plan.AttrRNG.
func attrRNG(seed int64, attr int) *rand.Rand {
	return plan.AttrRNG(seed, attr)
}

// attrBoundaries picks the bucketing for one numeric attribute: finest
// buckets when the domain is small enough and exact mining is enabled,
// otherwise the randomized equi-depth buckets of Algorithm 3.1.
func attrBoundaries(rel relation.Relation, numAttr int, cfg Config, rng *rand.Rand) (bucketing.Boundaries, error) {
	if cfg.ExactDomainLimit > 0 {
		bounds, err := bucketing.DistinctValueBoundaries(rel, numAttr, cfg.ExactDomainLimit)
		if err == nil {
			return bounds, nil
		}
		// Large or empty domains fall back to sampling below.
	}
	return bucketing.SampledBoundaries(rel, numAttr, cfg.Buckets, cfg.SampleFactor, rng)
}

// attrRules mines all rules for one numeric attribute. The counting
// scan covers every requested objective in a single pass.
func attrRules(rel relation.Relation, numAttr int, objectives []bucketing.BoolCond,
	filter []bucketing.BoolCond, cfg Config, rng *rand.Rand) ([]Rule, error) {
	s := rel.Schema()
	bounds, err := attrBoundaries(rel, numAttr, cfg, rng)
	if err != nil {
		return nil, fmt.Errorf("miner: bucketing %s: %w", s[numAttr].Name, err)
	}
	counts, err := bucketing.Count(rel, numAttr, bounds, bucketing.Options{
		Bools:         objectives,
		Filter:        filter,
		TrackExtremes: true,
	})
	if err != nil {
		return nil, fmt.Errorf("miner: counting %s: %w", s[numAttr].Name, err)
	}
	return rulesFromCounts(s, numAttr, objectives, filter, cfg, counts)
}

// rulesFromCounts applies the Section 4 optimized-rule algorithms to
// one attribute's per-bucket counts with the config's kind selection.
// Pure CPU on in-memory counts: this is the tail of the per-attribute
// oracle and delegates to the session engine's extraction.
func rulesFromCounts(s relation.Schema, numAttr int, objectives []bucketing.BoolCond,
	filter []bucketing.BoolCond, cfg Config, counts *bucketing.Counts) ([]Rule, error) {
	kinds := []RuleKind{OptimizedSupport, OptimizedConfidence}
	if cfg.MineGain {
		kinds = append(kinds, OptimizedGain)
	}
	return extractRulesFromCounts(s, numAttr, objectives, filter, kinds,
		cfg.MinSupport, cfg.MinConfidence, counts)
}

// extractRulesFromCounts is the session's per-driver rule extraction
// over freshly counted (not cached) statistics: each objective row is
// prepared from the counts, then driverRules runs as in the session.
func extractRulesFromCounts(s relation.Schema, numAttr int, objectives []bucketing.BoolCond,
	filter []bucketing.BoolCond, kinds []RuleKind, minSupport, minConfidence float64,
	counts *bucketing.Counts) ([]Rule, error) {
	if counts.N == 0 {
		return nil, nil // filter excluded everything; no rules
	}
	compact, _ := counts.Compact()
	prepared := func(k int) (*core.Prepared, error) {
		v := make([]float64, compact.M)
		for i, c := range compact.V[k] {
			v[i] = float64(c)
		}
		return core.Prepare(compact.U, v)
	}
	return driverRules(s, numAttr, objectives, filter, kinds, minSupport, minConfidence,
		compact, prepared, &core.Scratch{})
}

// mineAllSetup validates cfg and the relation and derives the shared
// inputs of both MineAll pipelines: the numeric attribute positions and
// the Boolean objective conditions.
func mineAllSetup(rel relation.Relation, cfg Config) (Config, []int, []bucketing.BoolCond, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, nil, nil, err
	}
	s := rel.Schema()
	if rel.NumTuples() == 0 {
		return cfg, nil, nil, fmt.Errorf("miner: empty relation")
	}
	numIdx := s.NumericIndices()
	if len(numIdx) == 0 {
		return cfg, nil, nil, fmt.Errorf("miner: no numeric attributes")
	}
	var objectives []bucketing.BoolCond
	for _, b := range s.BooleanIndices() {
		objectives = append(objectives, bucketing.BoolCond{Attr: b, Want: true})
		if cfg.MineNegations {
			objectives = append(objectives, bucketing.BoolCond{Attr: b, Want: false})
		}
	}
	if len(objectives) == 0 {
		return cfg, nil, nil, fmt.Errorf("miner: no Boolean attributes to use as objectives")
	}
	return cfg, numIdx, objectives, nil
}

// assembleResult orders per-attribute rule sets by schema position and
// sorts the merged set by descending lift.
func assembleResult(rel relation.Relation, cfg Config, byPos [][]Rule) *Result {
	res := &Result{Tuples: rel.NumTuples(), Config: cfg}
	for _, rs := range byPos {
		res.Rules = append(res.Rules, rs...)
	}
	sort.SliceStable(res.Rules, func(i, j int) bool {
		return res.Rules[i].Lift() > res.Rules[j].Lift()
	})
	return res
}

// mineAllPerAttribute is the legacy unfused pipeline: one sampling pass
// plus one counting scan per numeric attribute (d+1 relation reads for
// d attributes). Kept as the differential-testing reference for the
// fused MineAll, which must produce rule-for-rule identical output.
func mineAllPerAttribute(rel relation.Relation, cfg Config) (*Result, error) {
	cfg, numIdx, objectives, err := mineAllSetup(rel, cfg)
	if err != nil {
		return nil, err
	}
	type job struct {
		pos  int
		attr int
	}
	type out struct {
		pos   int
		rules []Rule
		err   error
	}
	jobs := make(chan job)
	outs := make(chan out, len(numIdx))
	workers := cfg.Workers
	if workers > len(numIdx) {
		workers = len(numIdx)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				// Independent deterministic stream per attribute.
				rng := attrRNG(cfg.Seed, j.attr)
				rules, err := attrRules(rel, j.attr, objectives, nil, cfg, rng)
				outs <- out{pos: j.pos, rules: rules, err: err}
			}
		}()
	}
	for pos, attr := range numIdx {
		jobs <- job{pos: pos, attr: attr}
	}
	close(jobs)
	wg.Wait()
	close(outs)

	byPos := make([][]Rule, len(numIdx))
	for o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		byPos[o.pos] = o.rules
	}
	return assembleResult(rel, cfg, byPos), nil
}

// legacyMine is the pre-session targeted pipeline (its own sampling
// pass + counting scan via attrRules), kept as the differential-testing
// reference for the session-backed Mine.
func legacyMine(rel relation.Relation, numeric, objective string, objectiveValue bool,
	conditions []Condition, cfg Config) (supportRule, confidenceRule *Rule, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	s := rel.Schema()
	numAttr := s.Index(numeric)
	if numAttr < 0 || s[numAttr].Kind != relation.Numeric {
		return nil, nil, fmt.Errorf("miner: %q is not a numeric attribute", numeric)
	}
	objAttr := s.Index(objective)
	if objAttr < 0 || s[objAttr].Kind != relation.Boolean {
		return nil, nil, fmt.Errorf("miner: %q is not a Boolean attribute", objective)
	}
	var filter []bucketing.BoolCond
	for _, c := range conditions {
		a := s.Index(c.Attr)
		if a < 0 || s[a].Kind != relation.Boolean {
			return nil, nil, fmt.Errorf("miner: condition attribute %q is not Boolean", c.Attr)
		}
		filter = append(filter, bucketing.BoolCond{Attr: a, Want: c.Value})
	}
	rng := attrRNG(cfg.Seed, numAttr)
	rules, err := attrRules(rel, numAttr,
		[]bucketing.BoolCond{{Attr: objAttr, Want: objectiveValue}}, filter, cfg, rng)
	if err != nil {
		return nil, nil, err
	}
	for i := range rules {
		switch rules[i].Kind {
		case OptimizedSupport:
			supportRule = &rules[i]
		case OptimizedConfidence:
			confidenceRule = &rules[i]
		}
	}
	return supportRule, confidenceRule, nil
}

// averageSetup buckets the driver attribute and accumulates per-bucket
// target sums in one scan.
func averageSetup(rel relation.Relation, driver, target string, cfg Config) (*bucketing.Counts, error) {
	s := rel.Schema()
	dAttr := s.Index(driver)
	if dAttr < 0 || s[dAttr].Kind != relation.Numeric {
		return nil, fmt.Errorf("miner: %q is not a numeric attribute", driver)
	}
	tAttr := s.Index(target)
	if tAttr < 0 || s[tAttr].Kind != relation.Numeric {
		return nil, fmt.Errorf("miner: %q is not a numeric attribute", target)
	}
	if rel.NumTuples() == 0 {
		return nil, fmt.Errorf("miner: empty relation")
	}
	rng := attrRNG(cfg.Seed, dAttr)
	bounds, err := bucketing.SampledBoundaries(rel, dAttr, cfg.Buckets, cfg.SampleFactor, rng)
	if err != nil {
		return nil, err
	}
	counts, err := bucketing.Count(rel, dAttr, bounds, bucketing.Options{
		Targets:       []int{tAttr},
		TrackExtremes: true,
	})
	if err != nil {
		return nil, err
	}
	compact, _ := counts.Compact()
	return compact, nil
}

// sumOf adds xs up in order.
func sumOf(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// legacyMaxAverageRange is the pre-session pipeline, kept as the
// differential-testing reference for the session-backed MaxAverageRange.
func legacyMaxAverageRange(rel relation.Relation, driver, target string, minSupport float64, cfg Config) (AvgRange, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return AvgRange{}, err
	}
	if minSupport < 0 || minSupport > 1 {
		return AvgRange{}, fmt.Errorf("miner: minSupport %g out of [0,1]", minSupport)
	}
	compact, err := averageSetup(rel, driver, target, cfg)
	if err != nil {
		return AvgRange{}, err
	}
	p, ok, err := core.OptimalSlopePair(compact.U, compact.Sum[0], minSupport*float64(compact.N))
	if err != nil {
		return AvgRange{}, err
	}
	if !ok {
		return AvgRange{}, fmt.Errorf("miner: no range reaches support %g", minSupport)
	}
	return fillAvg(driver, target, p, compact, sumOf(compact.Sum[0])), nil
}

// legacyMaxSupportRange is the pre-session pipeline, kept as the
// differential-testing reference for the session-backed MaxSupportRange.
func legacyMaxSupportRange(rel relation.Relation, driver, target string, minAverage float64, cfg Config) (AvgRange, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return AvgRange{}, err
	}
	compact, err := averageSetup(rel, driver, target, cfg)
	if err != nil {
		return AvgRange{}, err
	}
	p, ok, err := core.OptimalSupportPair(compact.U, compact.Sum[0], minAverage)
	if err != nil {
		return AvgRange{}, err
	}
	if !ok {
		return AvgRange{}, fmt.Errorf("miner: no range reaches average %g", minAverage)
	}
	return fillAvg(driver, target, p, compact, sumOf(compact.Sum[0])), nil
}

// legacyMineTopK is the pre-session pipeline (its own sampling pass +
// counting scan), kept as the differential-testing reference for the
// session-backed MineTopK.
func legacyMineTopK(rel relation.Relation, numeric, objective string, objectiveValue bool,
	kind RuleKind, k int, cfg Config) ([]Rule, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("miner: k = %d must be positive", k)
	}
	s := rel.Schema()
	numAttr := s.Index(numeric)
	if numAttr < 0 || s[numAttr].Kind != relation.Numeric {
		return nil, fmt.Errorf("miner: %q is not a numeric attribute", numeric)
	}
	objAttr := s.Index(objective)
	if objAttr < 0 || s[objAttr].Kind != relation.Boolean {
		return nil, fmt.Errorf("miner: %q is not a Boolean attribute", objective)
	}
	if rel.NumTuples() == 0 {
		return nil, fmt.Errorf("miner: empty relation")
	}
	rng := attrRNG(cfg.Seed, numAttr)
	bounds, err := bucketing.SampledBoundaries(rel, numAttr, cfg.Buckets, cfg.SampleFactor, rng)
	if err != nil {
		return nil, err
	}
	counts, err := bucketing.Count(rel, numAttr, bounds, bucketing.Options{
		Bools:         []bucketing.BoolCond{{Attr: objAttr, Want: objectiveValue}},
		TrackExtremes: true,
	})
	if err != nil {
		return nil, err
	}
	compact, _ := counts.Compact()
	v := make([]float64, compact.M)
	hits := 0
	for i, c := range compact.V[0] {
		v[i] = float64(c)
		hits += c
	}

	prepared, err := core.Prepare(compact.U, v)
	if err != nil {
		return nil, err
	}
	var pairs []core.Pair
	switch kind {
	case OptimizedConfidence:
		pairs, err = prepared.TopKSlopePairs(cfg.MinSupport*float64(compact.N), k, &core.Scratch{})
	case OptimizedSupport:
		pairs, err = prepared.TopKSupportPairs(cfg.MinConfidence, k, &core.Scratch{})
	default:
		return nil, fmt.Errorf("miner: unknown rule kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	rules := make([]Rule, 0, len(pairs))
	for _, p := range pairs {
		r := Rule{
			Kind:           kind,
			Numeric:        s[numAttr].Name,
			Objective:      s[objAttr].Name,
			ObjectiveValue: objectiveValue,
			Baseline:       float64(hits) / float64(compact.N),
			Buckets:        compact.M,
		}
		fillPair(&r, p, compact)
		rules = append(rules, r)
	}
	return rules, nil
}

// legacyMineConjunctive is the pre-session pipeline (two counting
// scans sharing one boundary set), kept as the differential-testing
// reference for the session-backed MineConjunctive.
func legacyMineConjunctive(rel relation.Relation, numeric string, objectives []Condition,
	conditions []Condition, cfg Config) (supportRule, confidenceRule *Rule, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if len(objectives) == 0 {
		return nil, nil, fmt.Errorf("miner: at least one objective condition required")
	}
	s := rel.Schema()
	numAttr := s.Index(numeric)
	if numAttr < 0 || s[numAttr].Kind != relation.Numeric {
		return nil, nil, fmt.Errorf("miner: %q is not a numeric attribute", numeric)
	}
	resolve := func(conds []Condition) ([]bucketing.BoolCond, error) {
		var out []bucketing.BoolCond
		for _, c := range conds {
			a := s.Index(c.Attr)
			if a < 0 || s[a].Kind != relation.Boolean {
				return nil, fmt.Errorf("miner: condition attribute %q is not Boolean", c.Attr)
			}
			out = append(out, bucketing.BoolCond{Attr: a, Want: c.Value})
		}
		return out, nil
	}
	c1, err := resolve(conditions)
	if err != nil {
		return nil, nil, err
	}
	c2, err := resolve(objectives)
	if err != nil {
		return nil, nil, err
	}
	if rel.NumTuples() == 0 {
		return nil, nil, fmt.Errorf("miner: empty relation")
	}

	rng := attrRNG(cfg.Seed, numAttr)
	bounds, err := attrBoundaries(rel, numAttr, cfg, rng)
	if err != nil {
		return nil, nil, err
	}
	// Scan 1: u_i over C1.
	uCounts, err := bucketing.Count(rel, numAttr, bounds, bucketing.Options{
		Filter:        c1,
		TrackExtremes: true,
	})
	if err != nil {
		return nil, nil, err
	}
	if uCounts.N == 0 {
		return nil, nil, nil // C1 excludes everything
	}
	// Scan 2: v_i over C1 ∧ C2.
	vCounts, err := bucketing.Count(rel, numAttr, bounds, bucketing.Options{
		Filter: append(append([]bucketing.BoolCond{}, c1...), c2...),
	})
	if err != nil {
		return nil, nil, err
	}

	// Compact on u (v is bounded by u bucketwise).
	compact, keep := uCounts.Compact()
	v := make([]float64, compact.M)
	hits := 0
	for j := range v {
		i := j
		if keep != nil {
			i = keep[j]
		}
		v[j] = float64(vCounts.U[i])
		hits += vCounts.U[i]
	}
	cond := condString(s, c1)
	objNames := condString(s, c2)
	base := Rule{
		Numeric:   s[numAttr].Name,
		Objective: objNames,
		// ObjectiveValue is absorbed into the rendered conjunction.
		ObjectiveValue: true,
		Condition:      cond,
		Baseline:       float64(hits) / float64(compact.N),
		Buckets:        compact.M,
	}
	if p, ok, err := core.OptimalSupportPair(compact.U, v, cfg.MinConfidence); err != nil {
		return nil, nil, err
	} else if ok {
		r := base
		r.Kind = OptimizedSupport
		fillPair(&r, p, compact)
		supportRule = &r
	}
	if p, ok, err := core.OptimalSlopePair(compact.U, v, cfg.MinSupport*float64(compact.N)); err != nil {
		return nil, nil, err
	} else if ok {
		r := base
		r.Kind = OptimizedConfidence
		fillPair(&r, p, compact)
		confidenceRule = &r
	}
	return supportRule, confidenceRule, nil
}

// legacyBuildProfile is the pre-session profile pipeline (its own
// sampling pass + counting scan), the differential-testing reference
// for Session.Profile and BuildProfile.
func legacyBuildProfile(rel relation.Relation, numeric, objective string, objectiveValue bool,
	buckets int, cfg Config) (*Profile, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if buckets < 1 {
		return nil, fmt.Errorf("miner: profile bucket count %d must be positive", buckets)
	}
	s := rel.Schema()
	numAttr := s.Index(numeric)
	if numAttr < 0 || s[numAttr].Kind != relation.Numeric {
		return nil, fmt.Errorf("miner: %q is not a numeric attribute", numeric)
	}
	objAttr := s.Index(objective)
	if objAttr < 0 || s[objAttr].Kind != relation.Boolean {
		return nil, fmt.Errorf("miner: %q is not a Boolean attribute", objective)
	}
	if rel.NumTuples() == 0 {
		return nil, fmt.Errorf("miner: empty relation")
	}
	rng := attrRNG(cfg.Seed, numAttr)
	bounds, err := bucketing.SampledBoundaries(rel, numAttr, buckets, cfg.SampleFactor, rng)
	if err != nil {
		return nil, err
	}
	counts, err := bucketing.Count(rel, numAttr, bounds, bucketing.Options{
		Bools:         []bucketing.BoolCond{{Attr: objAttr, Want: objectiveValue}},
		TrackExtremes: true,
	})
	if err != nil {
		return nil, err
	}
	compact, _ := counts.Compact()
	p := &Profile{
		Numeric:        numeric,
		Objective:      objective,
		ObjectiveValue: objectiveValue,
		N:              compact.N,
	}
	hits := 0
	for i := 0; i < compact.M; i++ {
		hits += compact.V[0][i]
		p.Buckets = append(p.Buckets, ProfileBucket{
			Lo:      compact.MinVal[i],
			Hi:      compact.MaxVal[i],
			Support: compact.U[i],
			Conf:    float64(compact.V[0][i]) / float64(compact.U[i]),
		})
	}
	p.Overall = float64(hits) / float64(compact.N)
	return p, nil
}
