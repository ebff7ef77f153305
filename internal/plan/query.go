// Package plan is the query planning layer of the miner: a small query
// IR, a planner that dedupes the sufficient statistics a batch of
// queries needs, and an executor that materializes the missing
// statistics in at most TWO relation scans (a sampling phase of point
// reads, scanning only for finest buckets, and one fused counting scan)
// regardless of how many queries the batch holds.
//
// The key observation — the paper's own — is that the bucketed counts
// are *sufficient statistics*: once an attribute's (or attribute
// pair's) count grid exists, the optimized rule for ANY threshold,
// objective kind, or region class is derived from the grid alone
// without touching the relation again. The plan layer therefore splits
// mining into a data plane (boundaries, count arrays, pair grids —
// produced by scans, cached) and a query plane (the Section 4 / §1.4
// optimization kernels — pure CPU on the cached statistics, run by
// internal/miner). A mixed batch of 1-D and 2-D queries shares exactly
// two scans; a repeat query whose statistics are cached costs zero.
package plan

import (
	"encoding/json"
	"fmt"
)

// RuleKind says which optimization produces a rule.
type RuleKind int

const (
	// OptimizedSupport rules maximize support subject to a minimum
	// confidence (Algorithms 4.3 + 4.4).
	OptimizedSupport RuleKind = iota
	// OptimizedConfidence rules maximize confidence subject to a
	// minimum support (Algorithms 4.1 + 4.2).
	OptimizedConfidence
	// OptimizedGain rules maximize the gain Σ(v_i − θ·u_i): the excess
	// number of hits over what the confidence threshold θ requires.
	// Discussed at the end of the paper's §4.2 (Bentley/Kadane) and
	// developed as a rule class in the authors' follow-up work; found in
	// O(M) with Kadane's algorithm. Unlike the other two kinds, gain
	// balances support and confidence in a single objective.
	OptimizedGain
)

// String returns the kind name.
func (k RuleKind) String() string {
	switch k {
	case OptimizedSupport:
		return "optimized-support"
	case OptimizedConfidence:
		return "optimized-confidence"
	case OptimizedGain:
		return "optimized-gain"
	default:
		return fmt.Sprintf("RuleKind(%d)", int(k))
	}
}

// MarshalJSON encodes the kind as its name.
func (k RuleKind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// UnmarshalJSON decodes a kind from its name (as MarshalJSON writes
// it); unknown names are errors, so a malformed batch file fails
// loudly instead of silently mining the zero kind.
func (k *RuleKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("plan: rule kind must be a string: %w", err)
	}
	switch name {
	case "optimized-support":
		*k = OptimizedSupport
	case "optimized-confidence":
		*k = OptimizedConfidence
	case "optimized-gain":
		*k = OptimizedGain
	default:
		return fmt.Errorf("plan: unknown rule kind %q", name)
	}
	return nil
}

// RegionClass selects the 2-D region family for region mining — the
// three classes named in the paper's §1.4 in increasing generality.
type RegionClass int

const (
	// RectangleClass is mined via rule kinds, not region classes;
	// listed for completeness.
	RectangleClass RegionClass = iota
	// RectilinearConvexClass regions intersect every row AND column in
	// one interval (KDD'97 companion [20]).
	RectilinearConvexClass
	// XMonotoneClass regions intersect every column in one interval
	// (SIGMOD'96 companion [7]).
	XMonotoneClass
)

// String returns the class name.
func (c RegionClass) String() string {
	switch c {
	case RectangleClass:
		return "rectangle"
	case RectilinearConvexClass:
		return "rectilinear-convex"
	case XMonotoneClass:
		return "x-monotone"
	default:
		return fmt.Sprintf("RegionClass(%d)", int(c))
	}
}

// MarshalJSON encodes the class as its name.
func (c RegionClass) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", c.String())), nil
}

// UnmarshalJSON decodes a class from its name; unknown names are
// errors.
func (c *RegionClass) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("plan: region class must be a string: %w", err)
	}
	switch name {
	case "x-monotone", "xmonotone":
		*c = XMonotoneClass
	case "rectilinear-convex", "rectconvex":
		*c = RectilinearConvexClass
	default:
		return fmt.Errorf("plan: unknown region class %q (rectangles are mined via kinds)", name)
	}
	return nil
}

// Condition is a named primitive Boolean condition (Attr = Value).
type Condition struct {
	Attr  string `json:"attr"`
	Value bool   `json:"value"`
}

// Op is the operation a Query asks for.
type Op int

const (
	// OpRules mines 1-D optimized rules (A ∈ [v1,v2]) ⇒ (C = value),
	// optionally under presumptive conditions. An empty Numeric means
	// every numeric attribute; an empty Objective means every Boolean
	// attribute (the MineAll workload).
	OpRules Op = iota
	// OpConjunctive mines the fully general §4.3 rule form
	// (A ∈ [v1,v2]) ∧ C1 ⇒ C2 with conjunctions on both sides.
	OpConjunctive
	// OpTopK mines up to K pairwise-disjoint optimized ranges for one
	// (numeric, Boolean) pair, ranked best first.
	OpTopK
	// OpAverage finds the Numeric range maximizing the average of
	// Target among ranges with support ≥ MinSupport (Definition 5.2).
	OpAverage
	// OpSupportRange finds the Numeric range maximizing support among
	// ranges whose Target average is ≥ MinAverage (Definition 5.3).
	OpSupportRange
	// OpRules2D mines 2-D optimized rules (rectangle kinds and/or §1.4
	// region classes) over attribute pairs. Numeric+NumericB select one
	// pair; Numerics selects a set to pair up (empty = all numerics).
	OpRules2D
)

var opNames = map[Op]string{
	OpRules:        "rules",
	OpConjunctive:  "conjunctive",
	OpTopK:         "topk",
	OpAverage:      "average",
	OpSupportRange: "support-range",
	OpRules2D:      "rules2d",
}

// String returns the op name.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// MarshalJSON encodes the op as its name.
func (o Op) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", o.String())), nil
}

// UnmarshalJSON decodes an op from its name; unknown names are errors.
func (o *Op) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("plan: op must be a string: %w", err)
	}
	for op, n := range opNames {
		if n == name {
			*o = op
			return nil
		}
	}
	return fmt.Errorf("plan: unknown op %q", name)
}

// Query is one mining request in the session IR. The zero value of
// every optional field selects the session default (thresholds, bucket
// counts, grid side) so a Query carries only what distinguishes it.
// Queries are plain values: comparable-ish, JSON-serializable, and
// independent of any relation until resolved against a schema.
type Query struct {
	// Op selects the operation; OpRules is the zero value.
	Op Op `json:"op"`
	// Numeric is the range attribute A ("" = all numeric attributes,
	// OpRules and OpRules2D only).
	Numeric string `json:"numeric,omitempty"`
	// NumericB is the second axis attribute for a single-pair OpRules2D.
	NumericB string `json:"numericB,omitempty"`
	// Numerics lists the attributes OpRules2D pairs up (alternative to
	// Numeric+NumericB; empty with empty Numeric = all numerics).
	Numerics []string `json:"numerics,omitempty"`
	// Objective is the Boolean objective attribute C ("" = all Boolean
	// attributes, OpRules only).
	Objective string `json:"objective,omitempty"`
	// ObjectiveValue is the required value of C (true = yes).
	ObjectiveValue bool `json:"objectiveValue"`
	// Objectives is the conjunctive objective C2 (OpConjunctive).
	Objectives []Condition `json:"objectives,omitempty"`
	// Conditions is the presumptive conjunct C1.
	Conditions []Condition `json:"conditions,omitempty"`
	// Kinds lists the rule kinds to mine; nil selects the two
	// paper-standard kinds (OptimizedSupport, OptimizedConfidence). An
	// explicit empty slice mines no ranked rules (OpRules2D with only
	// Regions). No omitempty: nil and [] differ semantically, so a
	// marshaled query must round-trip the distinction (nil encodes as
	// null, [] as an empty array).
	Kinds []RuleKind `json:"kinds"`
	// Regions lists §1.4 region classes to mine per pair (OpRules2D).
	Regions []RegionClass `json:"regions,omitempty"`
	// Negations also mines (C = no) objectives (all-objectives OpRules).
	Negations bool `json:"negations,omitempty"`
	// Buckets overrides the 1-D bucket count M (0 = session default).
	Buckets int `json:"buckets,omitempty"`
	// GridSide overrides the 2-D per-axis bucket count (0 = default).
	GridSide int `json:"gridSide,omitempty"`
	// MinSupport / MinConfidence override the session thresholds
	// (0 = session default). Thresholds never influence which scans run:
	// two queries differing only here share all statistics.
	MinSupport    float64 `json:"minSupport,omitempty"`
	MinConfidence float64 `json:"minConfidence,omitempty"`
	// K is the number of disjoint ranges for OpTopK.
	K int `json:"k,omitempty"`
	// Target is the averaged attribute B (OpAverage, OpSupportRange).
	Target string `json:"target,omitempty"`
	// MinAverage is the average floor for OpSupportRange.
	MinAverage float64 `json:"minAverage,omitempty"`
}
