package plan

import (
	"fmt"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// Defaults carries the session-level configuration that shapes
// sufficient statistics: thresholds fill unset query fields, the rest
// (seed, sample factor, exact-domain limit) pin the statistic
// identity. Within one session all of these are constant, which is
// what lets cache keys stay small.
type Defaults struct {
	MinSupport       float64
	MinConfidence    float64
	Buckets          int
	GridSide         int
	SampleFactor     int
	ExactDomainLimit int
	Seed             int64
	// PEs is the worker count of the sampling phase and the counting
	// scan (Algorithm 3.2): 0 means runtime.GOMAXPROCS(0), 1 a serial
	// run. Every statistic, boundaries and float target sums included,
	// is bit-identical at any worker count; see scanParallelism.
	PEs int
	// Scatter sets the counting executor's per-chunk retry policy for
	// batches and delta refreshes alike (scatter.go). The zero value
	// counts each chunk once.
	Scatter ScatterConfig
}

// Resolved is a Query bound to a concrete schema: attribute positions,
// defaulted thresholds, and the statistic keys its answer derives from.
type Resolved struct {
	Q  Query
	Op Op

	MinSupport    float64
	MinConfidence float64
	M             int  // 1-D bucket resolution
	Exact         bool // finest-bucket path enabled for the 1-D boundaries
	Side          int  // 2-D per-axis resolution
	K             int
	MinAverage    float64
	Kinds         []RuleKind
	Regions       []RegionClass

	// 1-D rule ops (OpRules, OpTopK).
	Drivers []int
	Objs    []bucketing.BoolCond // extraction order
	Filter  []bucketing.BoolCond // user order, for condition rendering
	Keys    []GroupKey           // one per driver

	// OpConjunctive.
	C1, C2     []bucketing.BoolCond
	UKey, VKey GroupKey

	// OpAverage / OpSupportRange.
	Target int

	// OpRules2D.
	Attrs   []int
	Names   []string
	ObjAttr int
	ObjWant bool
	PairKys []PairKey // (i, j) enumeration order, i < j over Attrs
}

// resolveBool maps a named condition list onto schema positions.
func resolveBool(s relation.Schema, conds []Condition) ([]bucketing.BoolCond, error) {
	var out []bucketing.BoolCond
	for _, c := range conds {
		a := s.Index(c.Attr)
		if a < 0 || s[a].Kind != relation.Boolean {
			return nil, fmt.Errorf("plan: condition attribute %q is not Boolean", c.Attr)
		}
		out = append(out, bucketing.BoolCond{Attr: a, Want: c.Value})
	}
	return out, nil
}

// resolveNumeric maps one named numeric attribute.
func resolveNumeric(s relation.Schema, name string) (int, error) {
	a := s.Index(name)
	if a < 0 || s[a].Kind != relation.Numeric {
		return -1, fmt.Errorf("plan: %q is not a numeric attribute", name)
	}
	return a, nil
}

// resolveObjective maps one named Boolean attribute.
func resolveObjective(s relation.Schema, name string) (int, error) {
	a := s.Index(name)
	if a < 0 || s[a].Kind != relation.Boolean {
		return -1, fmt.Errorf("plan: %q is not a Boolean attribute", name)
	}
	return a, nil
}

// groupKey builds the cache key for one driver's count group.
func groupKey(driver, m int, exact bool, filter []bucketing.BoolCond) (GroupKey, []bucketing.BoolCond) {
	canon, uniq := canonicalFilter(filter)
	return GroupKey{Driver: driver, M: m, Exact: exact, Filter: canon}, uniq
}

// Resolve validates q against rel's schema and the session defaults and
// derives the statistic keys its answer needs. Threshold defaulting
// follows the miner's Config convention: a zero field selects the
// session default.
func Resolve(rel relation.Relation, d Defaults, q Query) (*Resolved, error) {
	s := rel.Schema()
	if rel.NumTuples() == 0 {
		return nil, fmt.Errorf("plan: empty relation")
	}
	r := &Resolved{
		Q:             q,
		Op:            q.Op,
		MinSupport:    q.MinSupport,
		MinConfidence: q.MinConfidence,
		M:             q.Buckets,
		Side:          q.GridSide,
		K:             q.K,
		MinAverage:    q.MinAverage,
		Kinds:         q.Kinds,
		Regions:       q.Regions,
	}
	if q.Op != OpAverage && q.Op != OpSupportRange {
		// The average-operator ops take their floors literally (a zero
		// support floor means "any range"); rule ops follow the Config
		// convention where zero selects the session default.
		if r.MinSupport == 0 {
			r.MinSupport = d.MinSupport
		}
		if r.MinConfidence == 0 {
			r.MinConfidence = d.MinConfidence
		}
	}
	if r.MinSupport < 0 || r.MinSupport > 1 {
		return nil, fmt.Errorf("plan: MinSupport %g out of [0,1]", r.MinSupport)
	}
	if r.MinConfidence < 0 || r.MinConfidence > 1 {
		return nil, fmt.Errorf("plan: MinConfidence %g out of [0,1]", r.MinConfidence)
	}
	if r.M == 0 {
		r.M = d.Buckets
	}
	if r.M < 1 {
		return nil, fmt.Errorf("plan: bucket count %d must be positive", r.M)
	}
	if r.Side == 0 {
		r.Side = d.GridSide
	}
	if r.Side < 1 {
		return nil, fmt.Errorf("plan: grid side %d must be positive", r.Side)
	}
	if err := rejectUnusedFields(q); err != nil {
		return nil, err
	}
	for _, kind := range r.Kinds {
		switch kind {
		case OptimizedSupport, OptimizedConfidence, OptimizedGain:
		default:
			return nil, fmt.Errorf("plan: unknown rule kind %v", kind)
		}
	}
	for _, class := range r.Regions {
		switch class {
		case XMonotoneClass, RectilinearConvexClass:
		case RectangleClass:
			return nil, fmt.Errorf("plan: rectangles are mined via Kinds, not Regions")
		default:
			return nil, fmt.Errorf("plan: unknown region class %v", class)
		}
	}

	switch q.Op {
	case OpRules:
		return r.resolveRules(s, d)
	case OpConjunctive:
		return r.resolveConjunctive(s, d)
	case OpTopK:
		return r.resolveTopK(s)
	case OpAverage, OpSupportRange:
		return r.resolveAverage(s)
	case OpRules2D:
		return r.resolveRules2D(s)
	default:
		return nil, fmt.Errorf("plan: unknown op %v", q.Op)
	}
}

// rejectUnusedFields fails a query carrying populated fields its op
// would silently ignore: a conditioned top-k query, a 1-D query with a
// second axis attribute, an average query with rule kinds — all smell
// like the user meant a different op, and dropping the field would
// mine something other than what they asked for. The fail-loudly
// contract of the batch format extends down to resolution.
func rejectUnusedFields(q Query) error {
	avg := q.Op == OpAverage || q.Op == OpSupportRange
	checks := []struct {
		name string
		set  bool
		used bool
	}{
		{"numericB", q.NumericB != "", q.Op == OpRules2D},
		{"numerics", q.Numerics != nil, q.Op == OpRules2D},
		{"objective", q.Objective != "", q.Op == OpRules || q.Op == OpTopK || q.Op == OpRules2D},
		{"objectives", q.Objectives != nil, q.Op == OpConjunctive},
		{"conditions", q.Conditions != nil, q.Op == OpRules || q.Op == OpConjunctive},
		{"kinds", q.Kinds != nil, !avg},
		{"regions", q.Regions != nil, q.Op == OpRules2D},
		{"negations", q.Negations, q.Op == OpRules},
		{"buckets", q.Buckets != 0, q.Op != OpRules2D},
		{"gridSide", q.GridSide != 0, q.Op == OpRules2D},
		{"minSupport", q.MinSupport != 0, q.Op != OpSupportRange},
		{"minConfidence", q.MinConfidence != 0, !avg},
		{"k", q.K != 0, q.Op == OpTopK},
		{"target", q.Target != "", avg},
		{"minAverage", q.MinAverage != 0, q.Op == OpSupportRange},
	}
	for _, c := range checks {
		if c.set && !c.used {
			return fmt.Errorf("plan: field %s is not used by op %q", c.name, q.Op)
		}
	}
	return nil
}

func (r *Resolved) resolveRules(s relation.Schema, d Defaults) (*Resolved, error) {
	q := r.Q
	if r.Kinds == nil {
		r.Kinds = []RuleKind{OptimizedSupport, OptimizedConfidence}
	}
	if q.Numeric == "" {
		r.Drivers = append(r.Drivers, s.NumericIndices()...)
		if len(r.Drivers) == 0 {
			return nil, fmt.Errorf("plan: no numeric attributes")
		}
	} else {
		a, err := resolveNumeric(s, q.Numeric)
		if err != nil {
			return nil, err
		}
		r.Drivers = []int{a}
	}
	if q.Objective == "" {
		for _, b := range s.BooleanIndices() {
			r.Objs = append(r.Objs, bucketing.BoolCond{Attr: b, Want: true})
			if q.Negations {
				r.Objs = append(r.Objs, bucketing.BoolCond{Attr: b, Want: false})
			}
		}
		if len(r.Objs) == 0 {
			return nil, fmt.Errorf("plan: no Boolean attributes to use as objectives")
		}
	} else {
		a, err := resolveObjective(s, q.Objective)
		if err != nil {
			return nil, err
		}
		r.Objs = []bucketing.BoolCond{{Attr: a, Want: q.ObjectiveValue}}
	}
	filter, err := resolveBool(s, q.Conditions)
	if err != nil {
		return nil, err
	}
	r.Filter = filter
	r.Exact = d.ExactDomainLimit > 0
	for _, driver := range r.Drivers {
		key, _ := groupKey(driver, r.M, r.Exact, filter)
		r.Keys = append(r.Keys, key)
	}
	return r, nil
}

func (r *Resolved) resolveConjunctive(s relation.Schema, d Defaults) (*Resolved, error) {
	q := r.Q
	if r.Kinds == nil {
		r.Kinds = []RuleKind{OptimizedSupport, OptimizedConfidence}
	}
	if len(q.Objectives) == 0 {
		return nil, fmt.Errorf("plan: at least one objective condition required")
	}
	a, err := resolveNumeric(s, q.Numeric)
	if err != nil {
		return nil, err
	}
	r.Drivers = []int{a}
	if r.C1, err = resolveBool(s, q.Conditions); err != nil {
		return nil, err
	}
	if r.C2, err = resolveBool(s, q.Objectives); err != nil {
		return nil, err
	}
	r.Exact = d.ExactDomainLimit > 0
	r.UKey, _ = groupKey(a, r.M, r.Exact, r.C1)
	r.VKey, _ = groupKey(a, r.M, r.Exact, append(append([]bucketing.BoolCond{}, r.C1...), r.C2...))
	return r, nil
}

func (r *Resolved) resolveTopK(s relation.Schema) (*Resolved, error) {
	q := r.Q
	if r.K < 1 {
		return nil, fmt.Errorf("plan: k = %d must be positive", r.K)
	}
	if r.Kinds == nil {
		r.Kinds = []RuleKind{OptimizedConfidence}
	}
	if len(r.Kinds) != 1 || r.Kinds[0] == OptimizedGain {
		return nil, fmt.Errorf("plan: top-k needs exactly one kind, optimized-support or optimized-confidence")
	}
	a, err := resolveNumeric(s, q.Numeric)
	if err != nil {
		return nil, err
	}
	obj, err := resolveObjective(s, q.Objective)
	if err != nil {
		return nil, err
	}
	r.Drivers = []int{a}
	r.Objs = []bucketing.BoolCond{{Attr: obj, Want: q.ObjectiveValue}}
	// The ranked-ranges and average-operator paths bucket with the plain
	// sampled boundaries (no finest-bucket promotion), matching their
	// one-shot ancestors.
	key, _ := groupKey(a, r.M, false, nil)
	r.Keys = []GroupKey{key}
	return r, nil
}

func (r *Resolved) resolveAverage(s relation.Schema) (*Resolved, error) {
	q := r.Q
	a, err := resolveNumeric(s, q.Numeric)
	if err != nil {
		return nil, err
	}
	t, err := resolveNumeric(s, q.Target)
	if err != nil {
		return nil, err
	}
	r.Drivers = []int{a}
	r.Target = t
	key, _ := groupKey(a, r.M, false, nil)
	r.Keys = []GroupKey{key}
	return r, nil
}

func (r *Resolved) resolveRules2D(s relation.Schema) (*Resolved, error) {
	q := r.Q
	if r.Kinds == nil {
		r.Kinds = []RuleKind{OptimizedSupport, OptimizedConfidence}
	}
	names := q.Numerics
	if names == nil && q.Numeric != "" {
		if q.NumericB == "" {
			return nil, fmt.Errorf("plan: 2-D mining needs two numeric attributes (numericB missing)")
		}
		names = []string{q.Numeric, q.NumericB}
	}
	if names == nil {
		for _, i := range s.NumericIndices() {
			names = append(names, s[i].Name)
		}
	}
	if len(names) < 2 {
		return nil, fmt.Errorf("plan: 2-D mining needs at least two numeric attributes, got %d", len(names))
	}
	attrs := make([]int, len(names))
	seen := make(map[int]bool, len(names))
	for k, name := range names {
		a, err := resolveNumeric(s, name)
		if err != nil {
			return nil, err
		}
		if seen[a] {
			return nil, fmt.Errorf("plan: the two numeric attributes must differ")
		}
		seen[a] = true
		attrs[k] = a
	}
	if q.Objective == "" {
		return nil, fmt.Errorf("plan: 2-D mining requires an objective attribute")
	}
	obj, err := resolveObjective(s, q.Objective)
	if err != nil {
		return nil, err
	}
	r.Attrs, r.Names, r.ObjAttr, r.ObjWant = attrs, names, obj, q.ObjectiveValue
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			r.PairKys = append(r.PairKys, PairKey{
				A: attrs[i], B: attrs[j], Side: r.Side,
				ObjAttr: obj, ObjWant: q.ObjectiveValue,
			})
		}
	}
	return r, nil
}

// Requirements aggregates the statistics a batch of resolved queries
// needs, deduplicating groups and pairs across queries and unioning
// the rows wanted from each group. Iteration order is first-seen, so
// scan layouts are deterministic.
type Requirements struct {
	Groups     map[GroupKey]*GroupNeed
	GroupOrder []GroupKey
	Pairs      map[PairKey]*PairNeed
	PairOrder  []PairKey
	// Gen is the cache generation the batch executes against. Statistics
	// it publishes are stamped with it, so partials computed before a
	// concurrent append/refresh are discarded rather than merged into
	// already-advanced cache entries.
	Gen int64
}

// NewRequirements creates an empty requirement set.
func NewRequirements() *Requirements {
	return &Requirements{
		Groups: map[GroupKey]*GroupNeed{},
		Pairs:  map[PairKey]*PairNeed{},
	}
}

// group returns (creating if needed) the aggregated need for key.
func (req *Requirements) group(key GroupKey, driver int, filter []bucketing.BoolCond) *GroupNeed {
	if n, ok := req.Groups[key]; ok {
		return n
	}
	_, canon := canonicalFilter(filter)
	n := &GroupNeed{Key: key, Driver: driver, Filter: canon}
	req.Groups[key] = n
	req.GroupOrder = append(req.GroupOrder, key)
	return n
}

// Add folds one resolved query's needs into the set.
func (req *Requirements) Add(r *Resolved) {
	switch r.Op {
	case OpRules:
		for i, driver := range r.Drivers {
			n := req.group(r.Keys[i], driver, r.Filter)
			n.addBools(r.Objs)
			n.TrackExtremes = true
		}
	case OpConjunctive:
		u := req.group(r.UKey, r.Drivers[0], r.C1)
		u.TrackExtremes = true
		req.group(r.VKey, r.Drivers[0], append(append([]bucketing.BoolCond{}, r.C1...), r.C2...))
	case OpTopK:
		n := req.group(r.Keys[0], r.Drivers[0], nil)
		n.addBools(r.Objs)
		n.TrackExtremes = true
	case OpAverage, OpSupportRange:
		n := req.group(r.Keys[0], r.Drivers[0], nil)
		n.addTargets([]int{r.Target})
		n.TrackExtremes = true
	case OpRules2D:
		for _, key := range r.PairKys {
			if _, ok := req.Pairs[key]; ok {
				continue
			}
			req.Pairs[key] = &PairNeed{
				Key: key, A: key.A, B: key.B, Side: key.Side,
				Obj: bucketing.BoolCond{Attr: key.ObjAttr, Want: key.ObjWant},
			}
			req.PairOrder = append(req.PairOrder, key)
		}
	}
}
