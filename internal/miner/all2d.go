package miner

import (
	"fmt"
	"math"
	"sort"

	"optrule/internal/bucketing"
	"optrule/internal/fanout"
	"optrule/internal/plan"
	"optrule/internal/region"
	"optrule/internal/relation"
)

// The fused 2-D engine. The paper's §1.4 extension buckets TWO numeric
// attributes into a grid and optimizes a region over it; mining it for
// every attribute pair of a wide relation is the 2-D analogue of the
// "complete set of optimized rules" workload, and the same premise
// applies: the database is far larger than main memory, so sequential
// passes are the currency of performance. MineAll2D reads the relation
// exactly TWICE no matter how many pairs it mines.
//
// The scans themselves now live in the plan layer (internal/plan),
// which serves 2-D pair grids and 1-D count groups from the SAME two
// scans and caches them across session queries:
//
//  1. one sampling phase (bucketing.SampleBoundaries) builds every
//     attribute's grid boundaries on the worker pool, each worker
//     drawing, point-reading, sorting and cutting one attribute's
//     Algorithm 3.1 sample at a time in buffers it reuses — the same
//     per-attribute random streams the 1-D pipeline and the legacy
//     per-pair path consume, so boundaries are bit-identical at any
//     worker count;
//  2. one fused counting scan locates each tuple's bucket ONCE per
//     attribute and then fills all d(d−1)/2 pair grids. On relations
//     that support range scans the scan runs in plan's countRange:
//     relation.PlanScanChunks cuts the rows into storage-aligned
//     chunks of about equal estimated cost, Config.PEs pool slots
//     claim them, and each slot folds its chunks into private grids
//     that are merged at the end — grid cells are integer counts, so
//     the merge is exact and the result is identical to a serial
//     scan. The scan's ColumnSet selects only the participating
//     columns, so the columnar formats read just those column blocks.
//
// What remains here is extraction: the region kernels (rectangle
// sweep, x-monotone and rectilinear-convex DPs) run on the in-memory
// grids, fanned out over Config.Workers workers across (pair, kind)
// tasks, each kernel running on whatever share of those workers its
// task gets.

// Options2D selects what MineAll2D mines.
type Options2D struct {
	// Numerics names the numeric attributes to pair up; every
	// unordered pair of distinct entries gets a grid. nil selects all
	// numeric attributes of the relation. At least two are required.
	Numerics []string
	// Objective is the Boolean objective attribute C; required.
	Objective string
	// ObjectiveValue is the required value of C (true = yes).
	ObjectiveValue bool
	// Kinds lists the rectangle-rule kinds to mine per pair. nil
	// selects the two paper-standard kinds (OptimizedSupport,
	// OptimizedConfidence); an explicit empty slice mines no
	// rectangles (useful when only region classes are wanted).
	Kinds []RuleKind
	// Regions lists non-rectangular §1.4 region classes to also mine
	// per pair (XMonotoneClass, RectilinearConvexClass).
	Regions []RegionClass
	// GridSide is the per-axis bucket count (0 = DefaultGridSide). The
	// rectangle sweep is O(side³) per pair: sides up to 256 are
	// practical for a handful of pairs, smaller sides for wide
	// all-pairs sweeps.
	GridSide int
}

// Result2D is the output of MineAll2D.
type Result2D struct {
	// Rules are the mined rectangle rules, sorted by descending lift.
	Rules []Rule2D
	// Regions are the mined non-rectangular region rules, sorted by
	// descending gain.
	Regions []RegionRule
	// Pairs is the number of attribute pairs actually mined; pairs
	// with no tuple where both attributes are finite are skipped and
	// not counted.
	Pairs  int
	Tuples int
	Config Config
}

// MineAll2D mines 2-D optimized rules for every unordered pair of the
// requested numeric attributes in exactly two relation scans (one
// fused sampling scan, one fused counting scan — run by the plan
// executor of a throwaway Session). Pairs with no tuple where both
// attributes are finite are skipped. Output is rule-for-rule identical
// to running the legacy per-pair pipeline (the tests' mine2DPerPair)
// for each pair and kind.
func MineAll2D(rel relation.Relation, opt Options2D, cfg Config) (*Result2D, error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, err
	}
	return s.MineAll2D(opt)
}

// pair2D is one attribute pair: ai and bi index the resolved attribute
// list, and the embedded statistics are the working set's grid (rows
// bucket the first attribute, columns the second) with the per-bucket
// value extremes that translate bucket ranges back to closed value
// ranges. A tuple counts toward a pair iff BOTH its values are finite,
// so the extremes are tracked per pair, not per attribute — exactly
// the legacy per-pair semantics. The plan executor's fused counting
// scan produces (and caches) them.
type pair2D struct {
	ai, bi int
	*plan.Stats2D
}

// engine2D carries the extraction phase's state: the resolved query
// (names, objective value, kinds, region classes), the statistics the
// plan layer produced, and the query's thresholds. Session.extract2D
// assembles it.
type engine2D struct {
	cfg       Config
	r         *plan.Resolved
	objective string // name of r.ObjAttr
	tuples    int
	bounds    []bucketing.Boundaries
	pairs     []pair2D
}

// rectRule runs one rectangle kernel on one pair's grid with the given
// worker share and assembles the Rule2D (or nil when no rectangle
// meets the kind's threshold).
func (e *engine2D) rectRule(pr *pair2D, kind RuleKind, workers int) (*Rule2D, error) {
	var rect region.Rect
	var ok bool
	var err error
	switch kind {
	case OptimizedConfidence:
		rect, ok, err = region.OptimalRectConfidence(pr.Grid, e.cfg.MinSupport*float64(pr.N), workers)
	case OptimizedSupport:
		rect, ok, err = region.OptimalRectSupport(pr.Grid, e.cfg.MinConfidence, workers)
	case OptimizedGain:
		rect, ok, err = region.MaxGainRect(pr.Grid, e.cfg.MinConfidence, workers)
		if err == nil && ok && rect.Gain <= 0 {
			ok = false // no rectangle beats the threshold anywhere
		}
	default:
		return nil, fmt.Errorf("miner: unknown rule kind %v", kind)
	}
	if err != nil || !ok {
		return nil, err
	}
	out := &Rule2D{
		Kind:           kind,
		NumericA:       e.r.Names[pr.ai],
		NumericB:       e.r.Names[pr.bi],
		Objective:      e.objective,
		ObjectiveValue: e.r.ObjWant,
		Support:        float64(rect.Count) / float64(pr.N),
		Count:          rect.Count,
		Confidence:     rect.Conf,
		Baseline:       float64(pr.Hits) / float64(pr.N),
		Gain:           rect.Gain,
		GridRows:       pr.Grid.Rows(),
		GridCols:       pr.Grid.Cols(),
	}
	// Observed value ranges over the rectangle's rows/columns; empty
	// rows or columns inside the rectangle contribute ±Inf extremes
	// that min/max absorb naturally.
	out.LowA, out.HighA = math.Inf(1), math.Inf(-1)
	for r := rect.R1; r <= rect.R2; r++ {
		if pr.MinA[r] < out.LowA {
			out.LowA = pr.MinA[r]
		}
		if pr.MaxA[r] > out.HighA {
			out.HighA = pr.MaxA[r]
		}
	}
	out.LowB, out.HighB = math.Inf(1), math.Inf(-1)
	for c := rect.C1; c <= rect.C2; c++ {
		if pr.MinB[c] < out.LowB {
			out.LowB = pr.MinB[c]
		}
		if pr.MaxB[c] > out.HighB {
			out.HighB = pr.MaxB[c]
		}
	}
	return out, nil
}

// regionRule runs one non-rectangular region kernel on one pair's grid
// and assembles the RegionRule (nil when no region achieves positive
// gain).
func (e *engine2D) regionRule(pr *pair2D, class RegionClass, workers int) (*RegionRule, error) {
	var xm region.XMonotoneRegion
	var ok bool
	var err error
	switch class {
	case XMonotoneClass:
		xm, ok, err = region.MaxGainXMonotone(pr.Grid, e.cfg.MinConfidence, workers)
	case RectilinearConvexClass:
		xm, ok, err = region.MaxGainRectilinearConvex(pr.Grid, e.cfg.MinConfidence, workers)
	default:
		return nil, fmt.Errorf("miner: region class %v not supported here (rectangles use Kinds)", class)
	}
	if err != nil {
		return nil, err
	}
	if !ok || xm.Gain <= 0 {
		return nil, nil
	}
	out := &RegionRule{
		Class:          class,
		NumericA:       e.r.Names[pr.ai],
		NumericB:       e.r.Names[pr.bi],
		Objective:      e.objective,
		ObjectiveValue: e.r.ObjWant,
		Support:        float64(xm.Count) / float64(pr.N),
		Count:          xm.Count,
		Confidence:     xm.Conf,
		Baseline:       float64(pr.Hits) / float64(pr.N),
		Gain:           xm.Gain,
	}
	boundsB := e.bounds[pr.bi]
	for _, ci := range xm.Columns {
		bLo, bHi := boundsB.BucketRange(ci.Col)
		band := RegionBand{BLo: bLo, BHi: bHi, ALo: math.Inf(1), AHi: math.Inf(-1)}
		for r := ci.Lo; r <= ci.Hi; r++ {
			if pr.MinA[r] < band.ALo {
				band.ALo = pr.MinA[r]
			}
			if pr.MaxA[r] > band.AHi {
				band.AHi = pr.MaxA[r]
			}
		}
		out.Bands = append(out.Bands, band)
	}
	return out, nil
}

// mineAll is phase 3: fan the region kernels over a worker pool across
// (pair, kind) tasks. Each task gets an even share of the pool for its
// kernel's internal parallelism, so a single-pair request still uses
// every core on one sweep while a wide all-pairs request parallelizes
// across pairs.
func (e *engine2D) mineAll() (*Result2D, error) {
	type task struct {
		pair     int
		kind     RuleKind
		class    RegionClass
		isRegion bool
	}
	var tasks []task
	mined := 0
	for p := range e.pairs {
		if e.pairs[p].N == 0 {
			continue // no tuple has both values finite; skip the pair
		}
		mined++
		for _, kind := range e.r.Kinds {
			tasks = append(tasks, task{pair: p, kind: kind})
		}
		for _, class := range e.r.Regions {
			tasks = append(tasks, task{pair: p, class: class, isRegion: true})
		}
	}
	res := &Result2D{Pairs: mined, Tuples: e.tuples, Config: e.cfg}
	if len(tasks) == 0 {
		return res, nil
	}
	outer := max(1, min(e.cfg.Workers, len(tasks)))
	inner := max(1, e.cfg.Workers/outer)
	rules := make([]*Rule2D, len(tasks))
	regions := make([]*RegionRule, len(tasks))
	errs := make([]error, len(tasks))
	fanout.Each(outer, len(tasks), func(_, t int) {
		tk := tasks[t]
		pr := &e.pairs[tk.pair]
		if tk.isRegion {
			regions[t], errs[t] = e.regionRule(pr, tk.class, inner)
		} else {
			rules[t], errs[t] = e.rectRule(pr, tk.kind, inner)
		}
	})
	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("miner: pair (%s, %s): %w",
				e.r.Names[e.pairs[tasks[t].pair].ai], e.r.Names[e.pairs[tasks[t].pair].bi], err)
		}
	}
	for _, r := range rules {
		if r != nil {
			res.Rules = append(res.Rules, *r)
		}
	}
	for _, r := range regions {
		if r != nil {
			res.Regions = append(res.Regions, *r)
		}
	}
	sort.SliceStable(res.Rules, func(i, j int) bool {
		return res.Rules[i].Lift() > res.Rules[j].Lift()
	})
	sort.SliceStable(res.Regions, func(i, j int) bool {
		return res.Regions[i].Gain > res.Regions[j].Gain
	})
	return res, nil
}
