package miner

import (
	"fmt"
	"math"

	"optrule/internal/relation"
)

// Rule2D is a mined two-dimensional optimized rule (§1.4):
// ((A1, A2) ∈ [LowA, HighA] × [LowB, HighB]) ⇒ (Objective = Value).
type Rule2D struct {
	Kind           RuleKind
	NumericA       string
	NumericB       string
	LowA, HighA    float64
	LowB, HighB    float64
	Objective      string
	ObjectiveValue bool
	Support        float64
	Count          int
	Confidence     float64
	Baseline       float64
	Gain           float64 // OptimizedGain only
	GridRows       int
	GridCols       int
}

// Lift is Confidence / Baseline (+Inf when the baseline is zero).
func (r Rule2D) Lift() float64 {
	if r.Baseline == 0 {
		return math.Inf(1)
	}
	return r.Confidence / r.Baseline
}

// String renders the rule in the paper's notation.
func (r Rule2D) String() string {
	val := "yes"
	if !r.ObjectiveValue {
		val = "no"
	}
	return fmt.Sprintf("(%s in [%.6g, %.6g]) and (%s in [%.6g, %.6g]) => (%s=%s)  [%s: support %.2f%%, confidence %.2f%%, lift %.2f]",
		r.NumericA, r.LowA, r.HighA, r.NumericB, r.LowB, r.HighB,
		r.Objective, val, r.Kind, 100*r.Support, 100*r.Confidence, r.Lift())
}

// DefaultGridSide is the per-axis bucket count for 2-D mining: the
// rectangle sweep is O(side³), so side stays much smaller than the 1-D
// bucket counts. With the parallel region kernels, sides up to 256 are
// practical for targeted pairs; DefaultGridSide stays modest because
// MineAll2D multiplies the kernel cost by d(d−1)/2 pairs.
const DefaultGridSide = 64

// Mine2D mines the optimized rectangle rule of the given kind over two
// numeric attributes. gridSide buckets are used per axis (0 selects
// DefaultGridSide). For OptimizedConfidence the constraint is
// cfg.MinSupport; for OptimizedSupport and OptimizedGain it is
// cfg.MinConfidence.
//
// Mine2D runs on the session 2-D engine (see MineAll2D): one fused
// sampling scan derives BOTH axes' bucket boundaries, one counting
// scan fills the grid, and the rectangle sweep runs on the parallel
// region kernels — three relation scans in the legacy pipeline, two
// here. Boundaries come from the same per-attribute random streams the
// legacy path used, so mined rules are identical.
func Mine2D(rel relation.Relation, numericA, numericB, objective string, objectiveValue bool,
	kind RuleKind, gridSide int, cfg Config) (*Rule2D, error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, err
	}
	return s.Mine2D(numericA, numericB, objective, objectiveValue, kind, gridSide)
}
