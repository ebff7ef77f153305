package miner

import (
	"fmt"
	"math"
	"strings"

	"optrule/internal/plan"
	"optrule/internal/relation"
)

// RegionBand is one column slice of a mined x-monotone region, in value
// space: tuples with NumericB in (BLo, BHi] and NumericA in [ALo, AHi].
type RegionBand struct {
	BLo, BHi float64 // column bucket's value range of the second attribute
	ALo, AHi float64 // row interval's value range of the first attribute
}

// RegionRule is a mined x-monotone region rule (§1.4):
// ((A, B) ∈ R) ⇒ (Objective = Value) where R is a connected region
// whose intersection with every B-slice is one A-interval.
type RegionRule struct {
	Class              RegionClass
	NumericA, NumericB string
	Objective          string
	ObjectiveValue     bool
	Bands              []RegionBand
	Support            float64
	Count              int
	Confidence         float64
	Baseline           float64
	Gain               float64
}

// Lift is Confidence / Baseline (+Inf when the baseline is zero).
func (r RegionRule) Lift() float64 {
	if r.Baseline == 0 {
		return math.Inf(1)
	}
	return r.Confidence / r.Baseline
}

// String renders the rule with a compact band list.
func (r RegionRule) String() string {
	val := "yes"
	if !r.ObjectiveValue {
		val = "no"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "((%s, %s) in %s region, %d bands) => (%s=%s)  [optimized-gain: support %.2f%%, confidence %.2f%%, lift %.2f, gain %.1f]",
		r.NumericA, r.NumericB, r.Class, len(r.Bands), r.Objective, val,
		100*r.Support, 100*r.Confidence, r.Lift(), r.Gain)
	return b.String()
}

// Describe renders every band, one per line.
func (r RegionRule) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.String())
	for _, band := range r.Bands {
		fmt.Fprintf(&b, "  %s in (%.6g, %.6g]: %s in [%.6g, %.6g]\n",
			r.NumericB, band.BLo, band.BHi, r.NumericA, band.ALo, band.AHi)
	}
	return b.String()
}

// RegionClass selects the 2-D region family for region mining — the
// three classes named in the paper's §1.4 in increasing generality. It
// is defined in the plan layer (the session query IR names classes
// too) and re-exported here; the constants alias plan's.
type RegionClass = plan.RegionClass

const (
	// RectangleClass is handled by Mine2D; listed for completeness.
	RectangleClass = plan.RectangleClass
	// RectilinearConvexClass regions intersect every row AND column in
	// one interval (KDD'97 companion [20]).
	RectilinearConvexClass = plan.RectilinearConvexClass
	// XMonotoneClass regions intersect every column in one interval
	// (SIGMOD'96 companion [7]).
	XMonotoneClass = plan.XMonotoneClass
)

// MineXMonotone mines the x-monotone region maximizing the gain
// Σ(v − MinConfidence·u) over the (numericA, numericB) plane — the
// §1.4 extension for regions that follow diagonal trends. Returns nil
// when no region achieves positive gain. gridSide buckets per axis
// (0 = default).
func MineXMonotone(rel relation.Relation, numericA, numericB, objective string,
	objectiveValue bool, gridSide int, cfg Config) (*RegionRule, error) {
	return mineRegion(rel, numericA, numericB, objective, objectiveValue, gridSide, cfg, XMonotoneClass)
}

// MineRectilinearConvex mines the gain-optimal rectilinear-convex
// region — connected, bulging outward then back in, intersecting every
// row and column in a single interval. Returns nil when no region
// achieves positive gain.
func MineRectilinearConvex(rel relation.Relation, numericA, numericB, objective string,
	objectiveValue bool, gridSide int, cfg Config) (*RegionRule, error) {
	return mineRegion(rel, numericA, numericB, objective, objectiveValue, gridSide, cfg, RectilinearConvexClass)
}

// mineRegion runs one region class for one pair on the session 2-D
// engine: one fused sampling scan for both axes' boundaries, one
// counting scan, then the parallel gain DP — two relation scans in
// all. Boundaries come from per-attribute random streams, and the
// parallel DPs are pinned identical to the serial kernels.
func mineRegion(rel relation.Relation, numericA, numericB, objective string,
	objectiveValue bool, gridSide int, cfg Config, class RegionClass) (*RegionRule, error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, err
	}
	return s.mineRegion(numericA, numericB, objective, objectiveValue, gridSide, class)
}
