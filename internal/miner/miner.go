// Package miner orchestrates end-to-end rule mining: the "complete set
// of optimized rules for all combinations of hundreds of numeric and
// Boolean attributes" workload the paper's introduction targets.
//
// The engine is a plan→execute→extract SESSION (session.go): every
// query — 1-D rules, §4.3 conjunctive forms, ranked ranges, Section 5
// average-operator queries, and the §1.4 two-dimensional layer — is
// resolved by internal/plan into the sufficient statistics it needs,
// a batch's deduplicated misses are materialized in at most TWO
// sequential scans of the relation (one fused sampling scan building
// every bucket boundary, one fused counting scan filling every count
// group and pair grid), and the Section 4 hull/Kadane/top-k kernels
// then run on the in-memory statistics over a worker pool
// (Config.Workers). A Session's LRU statistics cache answers repeat
// queries with different thresholds or kinds in ZERO scans.
//
// The paper's premise is that the database is far larger than main
// memory, so sequential passes are the currency of performance: the
// fused pipeline reads a d-numeric-attribute relation twice end to end
// where a per-attribute pipeline would read it d+1 times — and a
// session batch reads it twice for ANY number of queries. The one-shot
// functions (MineAll, Mine, MineTopK, …) wrap a throwaway session; the
// pre-session pipelines survive as differential-test references
// (mineAllPerAttribute, legacyMine, Mine2DPerPair, …).
package miner

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"optrule/internal/bucketing"
	"optrule/internal/core"
	"optrule/internal/plan"
	"optrule/internal/relation"
	"optrule/internal/stats"
)

// RuleKind says which optimization produced a rule. It is defined in
// the plan layer (the session query IR names kinds too) and
// re-exported here; the constants alias plan's.
type RuleKind = plan.RuleKind

const (
	// OptimizedSupport rules maximize support subject to a minimum
	// confidence (Algorithms 4.3 + 4.4).
	OptimizedSupport = plan.OptimizedSupport
	// OptimizedConfidence rules maximize confidence subject to a
	// minimum support (Algorithms 4.1 + 4.2).
	OptimizedConfidence = plan.OptimizedConfidence
	// OptimizedGain rules maximize the gain Σ(v_i − θ·u_i): the excess
	// number of hits over what the confidence threshold θ requires.
	// Discussed at the end of the paper's §4.2 (Bentley/Kadane) and
	// developed as a rule class in the authors' follow-up work; found in
	// O(M) with Kadane's algorithm. Unlike the other two kinds, gain
	// balances support and confidence in a single objective.
	OptimizedGain = plan.OptimizedGain
)

// Rule is one mined optimized association rule
// (A ∈ [Low, High]) ⇒ (Objective = ObjectiveValue), possibly under a
// conjunctive presumptive condition (Section 4.3).
type Rule struct {
	Kind RuleKind
	// Numeric is the name of the range attribute A.
	Numeric string
	// Low and High are the endpoints of the discovered range [v1, v2].
	// They are the minimum and maximum attribute values actually
	// observed inside the selected buckets, so the interval is the
	// paper's closed range over real data values.
	Low, High float64
	// Objective is the name of the Boolean objective attribute C.
	Objective string
	// ObjectiveValue is the required value of C (true = yes).
	ObjectiveValue bool
	// Condition describes the presumptive conjunct C1, empty if none.
	Condition string
	// Support is the fraction of (filtered) tuples inside the range.
	Support float64
	// Count is the number of (filtered) tuples inside the range.
	Count int
	// Confidence is the fraction of in-range tuples meeting the objective.
	Confidence float64
	// Baseline is the overall fraction of (filtered) tuples meeting the
	// objective — the probability the rule must beat to be interesting.
	Baseline float64
	// Buckets is the number of non-empty buckets the range was chosen from.
	Buckets int
	// Gain is Σ(v_i − θ·u_i) over the range, set for OptimizedGain rules
	// (θ = MinConfidence): the number of hits in excess of the threshold.
	Gain float64
}

// Lift is Confidence / Baseline; values well above 1 mark interesting
// rules. Returns +Inf when the baseline is zero.
func (r Rule) Lift() float64 {
	if r.Baseline == 0 {
		return math.Inf(1)
	}
	return r.Confidence / r.Baseline
}

// PValue returns the one-sided p-value of the rule's confidence
// exceeding its baseline under the null hypothesis that tuples in the
// range meet the objective at the baseline rate, using the normal
// approximation to the binomial. Small values mark rules unlikely to be
// range-selection flukes. Returns 1 for degenerate rules.
func (r Rule) PValue() float64 {
	if r.Count <= 0 || r.Baseline <= 0 || r.Baseline >= 1 {
		return 1
	}
	k := int(r.Confidence*float64(r.Count) + 0.5)
	z := stats.BinomialZScore(k, r.Count, r.Baseline)
	return stats.NormalUpperTail(z)
}

// String renders the rule in the paper's notation.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s in [%.6g, %.6g])", r.Numeric, r.Low, r.High)
	if r.Condition != "" {
		fmt.Fprintf(&b, " and %s", r.Condition)
	}
	// Conjunctive objectives (MineConjunctive) arrive pre-rendered as
	// "(A=yes) and (B=no)"; simple objectives are a bare attribute name.
	obj := r.Objective
	if !strings.Contains(obj, "=") {
		val := "yes"
		if !r.ObjectiveValue {
			val = "no"
		}
		obj = fmt.Sprintf("(%s=%s)", r.Objective, val)
	}
	fmt.Fprintf(&b, " => %s  [%s: support %.2f%%, confidence %.2f%%, lift %.2f]",
		obj, r.Kind, 100*r.Support, 100*r.Confidence, r.Lift())
	return b.String()
}

// Config controls mining.
type Config struct {
	// MinSupport is the minimum support threshold as a fraction of the
	// (filtered) tuples, used by optimized-confidence rules. Default 0.05.
	MinSupport float64
	// MinConfidence is the minimum confidence threshold for
	// optimized-support rules. Default 0.5.
	MinConfidence float64
	// Buckets is M, the number of almost equi-depth buckets. Default 1000.
	Buckets int
	// SampleFactor is S/M for Algorithm 3.1. Default 40 (the paper's
	// choice; see Figure 1).
	SampleFactor int
	// Seed makes mining deterministic. The per-attribute sample streams
	// are derived from it.
	Seed int64
	// Workers bounds the number of numeric attributes mined
	// concurrently. Default runtime.GOMAXPROCS(0).
	Workers int
	// MineNegations also mines rules whose objective is (C = no).
	MineNegations bool
	// PEs, when greater than 1, runs each counting scan with that many
	// parallel processing elements (Algorithm 3.2) provided the relation
	// supports range scans. Workers parallelizes ACROSS attributes; PEs
	// parallelizes WITHIN one attribute's scan — useful when mining a
	// single attribute pair of a large relation.
	PEs int
	// MineGain also mines optimized-gain rules (maximize
	// Σ(v − MinConfidence·u) with Kadane's algorithm) alongside the two
	// paper-standard kinds in MineAll.
	MineGain bool
	// ExactDomainLimit, when positive, enables finest buckets
	// (Definition 2.5 / Example 2.4): if a numeric attribute has at most
	// this many distinct values (ages, counts, ratings, …), one bucket
	// per distinct value is used and the optimized rules are exact
	// rather than bucket approximations. Attributes with more distinct
	// values fall back to the sampled equi-depth buckets.
	ExactDomainLimit int
	// Scatter sets the counting executor's recovery policy:
	// Scatter.Workers > 0 hands each counting scan, batch and delta
	// refresh alike, to an in-process worker pool one task per shard,
	// with retries, re-routing, and a direct-scan fallback. Mined rules
	// are identical at every worker count (see plan.ScatterConfig); the
	// zero value counts in-process, one attempt per chunk.
	Scatter ScatterConfig
}

// ScatterConfig sets the counting executor's recovery policy; see
// plan.ScatterConfig.
type ScatterConfig = plan.ScatterConfig

// ScatterStats carries the scatter coordinator's recovery counters;
// see plan.ScatterStats.
type ScatterStats = plan.ScatterStats

// Worker executes scatter-gather counting tasks; see plan.Worker.
type Worker = plan.Worker

// NewLocalWorker returns the in-process scatter-gather worker over
// rel; see plan.NewLocalWorker.
func NewLocalWorker(rel relation.Relation, ref bool) Worker {
	return plan.NewLocalWorker(rel, ref)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MinSupport == 0 {
		c.MinSupport = 0.05
	}
	if c.MinConfidence == 0 {
		c.MinConfidence = 0.5
	}
	if c.Buckets == 0 {
		c.Buckets = 1000
	}
	if c.SampleFactor == 0 {
		c.SampleFactor = 40
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	if c.MinSupport < 0 || c.MinSupport > 1 {
		return fmt.Errorf("miner: MinSupport %g out of [0,1]", c.MinSupport)
	}
	if c.MinConfidence < 0 || c.MinConfidence > 1 {
		return fmt.Errorf("miner: MinConfidence %g out of [0,1]", c.MinConfidence)
	}
	if c.Buckets < 1 {
		return fmt.Errorf("miner: Buckets %d must be positive", c.Buckets)
	}
	if c.SampleFactor < 1 {
		return fmt.Errorf("miner: SampleFactor %d must be positive", c.SampleFactor)
	}
	if c.Workers < 0 {
		return fmt.Errorf("miner: negative Workers %d", c.Workers)
	}
	return nil
}

// condString renders a conjunction of Boolean conditions.
func condString(s relation.Schema, conds []bucketing.BoolCond) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		val := "yes"
		if !c.Want {
			val = "no"
		}
		parts[i] = fmt.Sprintf("(%s=%s)", s[c.Attr].Name, val)
	}
	return strings.Join(parts, " and ")
}

// attrRNG derives the deterministic random stream for one numeric
// attribute. EVERY entry point that buckets an attribute must use this
// — the session engine, the legacy per-attribute pipeline, and the
// targeted queries stay boundary-identical (and therefore
// rule-identical) only because they all draw from the same stream. The
// formula lives in plan.AttrRNG, next to the executor that consumes it.
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

// countScan performs the counting pass, fanning out over PEs
// (Algorithm 3.2) when configured and supported by the relation.
func countScan(rel relation.Relation, driver int, bounds bucketing.Boundaries,
	opts bucketing.Options, cfg Config) (*bucketing.Counts, error) {
	if cfg.PEs > 1 {
		if rs, ok := rel.(relation.RangeScanner); ok {
			return bucketing.ParallelCount(rs, driver, bounds, opts, cfg.PEs)
		}
	}
	return bucketing.Count(rel, driver, bounds, opts)
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
	counts, err := countScan(rel, numAttr, bounds, bucketing.Options{
		Bools:         objectives,
		Filter:        filter,
		TrackExtremes: true,
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("miner: counting %s: %w", s[numAttr].Name, err)
	}
	return rulesFromCounts(s, numAttr, objectives, filter, cfg, counts)
}

// rulesFromCounts applies the Section 4 optimized-rule algorithms to
// one attribute's per-bucket counts with the config's kind selection.
// Pure CPU on in-memory counts: this is the tail of the legacy
// per-attribute path and delegates to the session engine's extraction,
// so both produce rule-for-rule identical output.
func rulesFromCounts(s relation.Schema, numAttr int, objectives []bucketing.BoolCond,
	filter []bucketing.BoolCond, cfg Config, counts *bucketing.Counts) ([]Rule, error) {
	kinds := []RuleKind{OptimizedSupport, OptimizedConfidence}
	if cfg.MineGain {
		kinds = append(kinds, OptimizedGain)
	}
	return extractRulesFromCounts(s, numAttr, objectives, filter, kinds,
		cfg.MinSupport, cfg.MinConfidence, counts)
}

// extractRulesFromCounts is the kind-selectable rule extraction every
// 1-D path funnels through. For each objective it emits the requested
// kinds in the fixed order support, confidence, gain (whatever subset
// kinds names), which keeps the lift-sorted assembly stable across the
// session and legacy pipelines.
func extractRulesFromCounts(s relation.Schema, numAttr int, objectives []bucketing.BoolCond,
	filter []bucketing.BoolCond, kinds []RuleKind, minSupport, minConfidence float64,
	counts *bucketing.Counts) ([]Rule, error) {
	if counts.N == 0 {
		return nil, nil // filter excluded everything; no rules
	}
	compact, _ := counts.Compact()
	cond := condString(s, filter)

	var rules []Rule
	var err error
	for k, obj := range objectives {
		v := make([]float64, compact.M)
		hits := 0
		for i, c := range compact.V[k] {
			v[i] = float64(c)
			hits += c
		}
		baseline := float64(hits) / float64(compact.N)
		base := Rule{
			Numeric:        s[numAttr].Name,
			Objective:      s[obj.Attr].Name,
			ObjectiveValue: obj.Want,
			Condition:      cond,
			Baseline:       baseline,
			Buckets:        compact.M,
		}
		rules, err = appendKindRules(rules, base, compact, v, kinds, minSupport, minConfidence)
		if err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// wantKind reports whether kinds names kind.
func wantKind(kinds []RuleKind, kind RuleKind) bool {
	for _, k := range kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// appendKindRules runs the requested Section 4 optimizations over one
// (u, v) bucket sequence and appends the found rules to rules, always
// in the order support, confidence, gain.
func appendKindRules(rules []Rule, base Rule, compact *bucketing.Counts, v []float64,
	kinds []RuleKind, minSupport, minConfidence float64) ([]Rule, error) {
	if wantKind(kinds, OptimizedSupport) {
		if p, ok, err := core.OptimalSupportPair(compact.U, v, minConfidence); err != nil {
			return nil, err
		} else if ok {
			r := base
			r.Kind = OptimizedSupport
			fillPair(&r, p, compact)
			rules = append(rules, r)
		}
	}
	if wantKind(kinds, OptimizedConfidence) {
		minSupCount := minSupport * float64(compact.N)
		if p, ok, err := core.OptimalSlopePair(compact.U, v, minSupCount); err != nil {
			return nil, err
		} else if ok {
			r := base
			r.Kind = OptimizedConfidence
			fillPair(&r, p, compact)
			rules = append(rules, r)
		}
	}
	if wantKind(kinds, OptimizedGain) {
		gs, gt, gain, err := core.MaxGainRange(compact.U, v, minConfidence)
		if err != nil {
			return nil, err
		}
		if gain > 0 {
			r := base
			r.Kind = OptimizedGain
			r.Gain = gain
			count, sumV := 0, 0.0
			for i := gs; i <= gt; i++ {
				count += compact.U[i]
				sumV += v[i]
			}
			r.Low = compact.MinVal[gs]
			r.High = compact.MaxVal[gt]
			r.Count = count
			r.Support = float64(count) / float64(compact.N)
			r.Confidence = sumV / float64(count)
			rules = append(rules, r)
		}
	}
	return rules, nil
}

// fillPair copies a bucket-range solution into a Rule.
func fillPair(r *Rule, p core.Pair, c *bucketing.Counts) {
	r.Low = c.MinVal[p.S]
	r.High = c.MaxVal[p.T]
	r.Count = p.Count
	r.Support = float64(p.Count) / float64(c.N)
	r.Confidence = p.Conf
}

// Result is the output of MineAll.
type Result struct {
	Rules  []Rule
	Tuples int
	Config Config
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

// MineAll mines optimized-support and optimized-confidence rules for
// every (numeric attribute, Boolean attribute) combination of the
// relation, using cfg. Rules are sorted by descending lift.
//
// It is a thin wrapper over a throwaway Session running the
// plan→execute engine: one fused sampling scan builds boundaries for
// every numeric attribute, one fused counting scan produces per-bucket
// counts for every attribute, and the Section 4 algorithms run over
// the in-memory counts on a worker pool — so the relation is read
// exactly twice end to end no matter how many numeric attributes it
// has. Output is rule-for-rule identical to mining each attribute
// independently.
func MineAll(rel relation.Relation, cfg Config) (*Result, error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, err
	}
	return s.MineAll()
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

// Mine computes the two optimized rules for a single numeric attribute
// and Boolean objective, optionally under a conjunction of presumptive
// Boolean conditions (the generalized rules of Section 4.3:
// (A ∈ [v1,v2]) ∧ C1 ⇒ C2). Attribute names are resolved against the
// schema. Returned in order: optimized-support rule (or nil), then
// optimized-confidence rule (or nil). Thin wrapper over a throwaway
// Session.
func Mine(rel relation.Relation, numeric, objective string, objectiveValue bool,
	conditions []Condition, cfg Config) (supportRule, confidenceRule *Rule, err error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.Mine(numeric, objective, objectiveValue, conditions)
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

// Condition is a named primitive Boolean condition for Mine; it is
// shared with the session query IR (plan.Condition).
type Condition = plan.Condition
