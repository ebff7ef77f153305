package miner

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"optrule/internal/bucketing"
	"optrule/internal/core"
	"optrule/internal/fanout"
	"optrule/internal/plan"
	"optrule/internal/relation"
)

// The session engine: plan → execute → extract.
//
// A Session is a long-lived handle over one relation that answers
// mining queries from cached sufficient statistics. Every query is
// first RESOLVED into the statistics it needs (internal/plan's Query
// IR), the batch's union of needs is EXECUTED in at most two relation
// scans (one fused sampling scan, one fused counting scan — cache hits
// scan nothing), and the Section 4 / §1.4 rule optimizations then
// EXTRACT answers from the in-memory statistics. The one-shot package
// functions (MineAll, Mine, MineTopK, …) are thin wrappers over a
// throwaway session, pinned rule-for-rule identical to the
// pre-session pipelines (test oracles) by differential tests.

// Query is the session IR: one mining request. See the plan package
// for field semantics; the zero value of each optional field selects
// the session default.
type Query = plan.Query

// Query operations.
const (
	OpRules        = plan.OpRules
	OpConjunctive  = plan.OpConjunctive
	OpTopK         = plan.OpTopK
	OpAverage      = plan.OpAverage
	OpSupportRange = plan.OpSupportRange
	OpRules2D      = plan.OpRules2D
)

// CacheStats reports the session cache's occupancy and traffic.
type CacheStats = plan.CacheStats

// Answer is one query's result. Exactly one result group is populated,
// matching the query's op: Rules (OpRules, OpConjunctive, OpTopK),
// Rules2D/Regions (OpRules2D), or Range (OpAverage, OpSupportRange).
// Err carries per-query failures (unknown attributes, invalid
// thresholds) so one bad query does not sink its batch.
type Answer struct {
	Query Query
	Err   error
	// Rules holds 1-D rules: lift-sorted for rule queries, rank-ordered
	// for top-k queries.
	Rules []Rule
	// Rules2D and Regions hold 2-D results (lift- and gain-sorted).
	Rules2D []Rule2D
	Regions []RegionRule
	// Pairs is the number of attribute pairs actually mined (OpRules2D).
	Pairs int
	// Range is the average-operator result.
	Range *AvgRange
	// Tuples is the relation size at answer time.
	Tuples int
}

// rule returns the first rule of the given kind, or nil.
func (a *Answer) rule(kind RuleKind) *Rule {
	for i := range a.Rules {
		if a.Rules[i].Kind == kind {
			return &a.Rules[i]
		}
	}
	return nil
}

// DeltaStats reports what one incremental refresh (Append or
// RefreshFromStorage) did: tail rows scanned, boundary sets dropped
// over budget, entries folded vs dropped. See plan.DeltaStats.
type DeltaStats = plan.DeltaStats

// RowAppender is the storage capability Session.Append needs: an
// in-place growable relation (MemoryRelation implements it). Disk-
// backed relations grow through their own write paths instead —
// relation.AppendToSharded or the optdata append subcommand — after
// which RefreshFromStorage picks the committed tail up.
type RowAppender interface {
	relation.Relation
	Append(nums []float64, bools []bool) error
}

// StorageRefresher is the capability RefreshFromStorage needs: re-read
// the committed manifest and expose appended shards without
// invalidating in-flight scans (ShardedRelation implements it).
type StorageRefresher interface {
	relation.Relation
	Reopen() (added int, err error)
}

// Session is a long-lived mining handle over one relation: it owns an
// LRU-bounded, size-accounted cache of sufficient statistics (bucket
// boundaries, 1-D count groups, 2-D pair grids) keyed by (attributes,
// resolution, conditions), so queries that differ only in thresholds,
// rule kinds, or region classes rescan nothing. Sessions are safe for
// concurrent use; the underlying relation must support concurrent
// scans (all storage backends in this module do). Appends are
// first-class: Append and RefreshFromStorage fold new rows into the
// cached statistics with an O(Δ) tail scan instead of dropping them —
// see the package comment's "Plan/execute sessions" section.
type Session struct {
	rel relation.Relation
	cfg Config
	d   plan.Defaults
	c   *plan.LRUCache

	// refreshMu orders batches against refreshes: every batch holds the
	// read side for its whole execute+extract (so the statistics it
	// publishes were counted over the row count it planned against), and
	// a refresh holds the write side while it grows the relation and
	// folds the cache. gen and rows are guarded by it.
	refreshMu sync.RWMutex
	gen       int64
	rows      int

	// scratches pools the Section 4 solvers' working storage across
	// extractions (*core.Scratch); the cached statistics hold the
	// threshold-independent inputs, so a warm solve allocates nothing.
	scratches sync.Pool
}

// NewSession validates cfg and creates a session over rel. The
// relation may GROW during the session's lifetime — through
// Session.Append, or externally through the storage append path plus
// RefreshFromStorage — and the cached statistics follow incrementally.
// Only in-place rewrites (changing rows the cache already summarizes)
// still require InvalidateCache.
func NewSession(rel relation.Relation, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Session{
		rel: rel,
		cfg: cfg,
		d: plan.Defaults{
			MinSupport:       cfg.MinSupport,
			MinConfidence:    cfg.MinConfidence,
			Buckets:          cfg.Buckets,
			GridSide:         DefaultGridSide,
			SampleFactor:     cfg.SampleFactor,
			ExactDomainLimit: cfg.ExactDomainLimit,
			Seed:             cfg.Seed,
			PEs:              cfg.PEs,
			Scatter:          cfg.Scatter,
		},
		c:         plan.NewCache(0),
		rows:      rel.NumTuples(),
		scratches: sync.Pool{New: func() any { return new(core.Scratch) }},
	}, nil
}

// scratch takes a solver Scratch from the pool; put it back with
// s.scratches.Put when the solves are done.
func (s *Session) scratch() *core.Scratch { return s.scratches.Get().(*core.Scratch) }

// SetCacheLimit rebounds the statistics cache to maxBytes (0 restores
// the default budget, negative removes the bound), evicting
// least-recently-used statistics if the new budget is exceeded.
func (s *Session) SetCacheLimit(maxBytes int64) { s.c.SetMaxBytes(maxBytes) }

// CacheStats returns the statistics cache's occupancy and traffic.
func (s *Session) CacheStats() CacheStats { return s.c.Stats() }

// StatsCache exposes the session's statistics cache. Differential
// tests use it (e.g. LRUCache.CopyBoundsFrom pins a control session to
// another session's sampled boundaries); normal callers never need it.
func (s *Session) StatsCache() *plan.LRUCache { return s.c }

// InvalidateCache drops every cached statistic. It is needed ONLY
// after an in-place rewrite — rows the cache already summarizes
// changed under it. Plain growth does not require it: Append and
// RefreshFromStorage fold appended rows into the cache with an O(Δ)
// tail scan instead of recounting everything.
func (s *Session) InvalidateCache() {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	s.c.Invalidate()
	s.rows = s.rel.NumTuples()
	s.gen++ // defense in depth: no pre-rewrite partial may ever merge
}

// Append adds rows to the session's relation (which must be a
// RowAppender, e.g. a MemoryRelation) and incrementally folds them
// into every cached statistic with one counting scan over just the
// appended tail (see plan.RunDelta). Boundaries whose accumulated
// growth exceeds the Section 3.4 bucket-error budget are dropped
// instead, with everything counted over them; the next batch that
// needs them samples and counts them cold.
// Each row i is nums[i]/bools[i] in schema column order. On a row
// error nothing is appended; rows are validated before any lands.
func (s *Session) Append(nums [][]float64, bools [][]bool) (DeltaStats, error) {
	return s.AppendContext(context.Background(), nums, bools)
}

// AppendContext is Append under a context governing the tail scan.
func (s *Session) AppendContext(ctx context.Context, nums [][]float64, bools [][]bool) (DeltaStats, error) {
	ra, ok := s.rel.(RowAppender)
	if !ok {
		return DeltaStats{}, fmt.Errorf("miner: relation %T cannot append rows in place; grow the storage and call RefreshFromStorage", s.rel)
	}
	if len(nums) != len(bools) {
		return DeltaStats{}, fmt.Errorf("miner: %d numeric rows vs %d boolean rows", len(nums), len(bools))
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	for i := range nums {
		if err := ra.Append(nums[i], bools[i]); err != nil {
			if i > 0 {
				// Earlier rows of the batch landed; the cache must not go
				// stale. Fold what was appended before reporting.
				if _, ferr := s.refreshLocked(ctx); ferr != nil {
					return DeltaStats{}, fmt.Errorf("miner: append row %d: %v (and refreshing the partial batch: %w)", i, err, ferr)
				}
			}
			return DeltaStats{}, fmt.Errorf("miner: append row %d: %w", i, err)
		}
	}
	return s.refreshLocked(ctx)
}

// Refresh folds any in-place growth of the underlying relation into
// the cached statistics: use it when rows were appended to the
// relation object directly (a shared MemoryRelation, an instrumented
// wrapper) rather than through Session.Append. Shrinkage falls back to
// invalidation, like any non-append change.
func (s *Session) Refresh() (DeltaStats, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return s.refreshLocked(context.Background())
}

// RefreshFromStorage picks up rows appended to the session's storage
// outside the session — relation.AppendToSharded, the optdata append
// subcommand, another process — and folds them into the cached
// statistics exactly like Append. The relation must be a
// StorageRefresher (e.g. a ShardedRelation); its Reopen guarantees
// in-flight scans keep their pre-refresh snapshot.
func (s *Session) RefreshFromStorage() (DeltaStats, error) {
	return s.RefreshFromStorageContext(context.Background())
}

// RefreshFromStorageContext is RefreshFromStorage under a context.
func (s *Session) RefreshFromStorageContext(ctx context.Context) (DeltaStats, error) {
	sr, ok := s.rel.(StorageRefresher)
	if !ok {
		return DeltaStats{}, fmt.Errorf("miner: relation %T cannot reopen from storage", s.rel)
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if _, err := sr.Reopen(); err != nil {
		return DeltaStats{}, fmt.Errorf("miner: refresh: %w", err)
	}
	return s.refreshLocked(ctx)
}

// refreshLocked folds the relation's growth since the last refresh
// into the cache. Caller holds refreshMu.
func (s *Session) refreshLocked(ctx context.Context) (DeltaStats, error) {
	newN := s.rel.NumTuples()
	if newN == s.rows {
		return DeltaStats{OldRows: s.rows, NewRows: newN}, nil
	}
	ds, err := plan.RunDelta(ctx, s.rel, s.d, s.c, s.rows, newN, s.gen+1)
	if err != nil {
		// The relation already grew; the cache may hold pre-growth
		// statistics a later batch would serve as covering. Fail safe.
		s.c.Invalidate()
		s.rows = newN
		s.gen++
		return ds, fmt.Errorf("miner: delta refresh: %w (cache invalidated)", err)
	}
	s.rows = newN
	s.gen++
	return ds, nil
}

// ExecuteBatch answers a batch of queries together: the planner
// dedupes the sufficient statistics the whole batch needs, the
// executor materializes the cache misses in at most TWO relation scans
// (zero when everything is cached), and extraction runs per query on
// the in-memory statistics. The returned slice is parallel to queries;
// per-query failures — resolution errors AND storage failures the
// counting executor's retries could not recover from — land in Answer.Err,
// so a batch always returns one answer per query when the caller's
// context is live.
func (s *Session) ExecuteBatch(queries []Query) ([]Answer, error) {
	return s.ExecuteBatchContext(context.Background(), queries)
}

// ExecuteBatchContext is ExecuteBatch with a context: cancellation or
// deadline expiry aborts the batch's scans and fails the whole batch
// with the context's error. Storage failures, by contrast, are scoped
// to the queries they starve — every resolved query gets the scan
// error in its Answer.Err and the batch itself returns nil error, so
// callers draining a mixed batch see exactly which answers are usable.
func (s *Session) ExecuteBatchContext(ctx context.Context, queries []Query) ([]Answer, error) {
	return s.execute(ctx, s.d, queries, s.extract)
}

// execute resolves queries under d, materializes their statistics
// (plan.RunContext), and hands each resolved query with the batch's
// working set to extract. Every session read runs through it.
func (s *Session) execute(ctx context.Context, d plan.Defaults, queries []Query,
	extract func(*Answer, *plan.Resolved, *plan.StatsSet)) ([]Answer, error) {
	// The read side of refreshMu spans resolve, execute, AND extract: a
	// concurrent Append cannot slip between the batch planning against N
	// rows and publishing statistics counted over them, so every cache
	// entry's generation tag is truthful.
	s.refreshMu.RLock()
	defer s.refreshMu.RUnlock()
	answers := make([]Answer, len(queries))
	resolved := make([]*plan.Resolved, len(queries))
	req := plan.NewRequirements()
	req.Gen = s.gen
	for i, q := range queries {
		answers[i].Query = q
		r, err := plan.Resolve(s.rel, d, q)
		if err != nil {
			answers[i].Err = err
			continue
		}
		resolved[i] = r
		req.Add(r)
	}
	set, err := plan.RunContext(ctx, s.rel, d, s.c, req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		for i, r := range resolved {
			if r == nil {
				continue
			}
			answers[i].Err = fmt.Errorf("miner: materializing statistics: %w", err)
		}
		return answers, nil
	}
	for i, r := range resolved {
		if r == nil {
			continue
		}
		extract(&answers[i], r, set)
	}
	return answers, nil
}

// extract answers one resolved query from the batch's working set.
func (s *Session) extract(a *Answer, r *plan.Resolved, set *plan.StatsSet) {
	a.Tuples = s.rel.NumTuples()
	var err error
	switch r.Op {
	case plan.OpRules:
		a.Rules, err = s.extractRules(r, set)
	case plan.OpConjunctive:
		a.Rules, err = s.extractConjunctive(r, set)
	case plan.OpTopK:
		a.Rules, err = s.extractTopK(r, set)
	case plan.OpAverage, plan.OpSupportRange:
		a.Range, err = s.extractAverage(r, set)
	case plan.OpRules2D:
		var res *Result2D
		res, err = s.extract2D(r, set)
		if err == nil {
			a.Rules2D, a.Regions, a.Pairs = res.Rules, res.Regions, res.Pairs
		}
	default:
		err = fmt.Errorf("miner: unknown op %v", r.Op)
	}
	a.Err = err
}

// extractRules runs the Section 4 algorithms for every driver of a
// 1-D rule query on the worker pool and merges the per-driver rule
// sets in schema order, sorted by descending lift — exactly the
// MineAll assembly. Each driver's solves sweep its cached group's
// prepared rows; the first extraction over a group builds them.
func (s *Session) extractRules(r *plan.Resolved, set *plan.StatsSet) ([]Rule, error) {
	schema := s.rel.Schema()
	byPos := make([][]Rule, len(r.Drivers))
	errs := make([]error, len(r.Drivers))
	fanout.Each(s.cfg.Workers, len(r.Drivers), func(_, pos int) {
		st, rows, err := s.group(set, r.Keys[pos])
		if err != nil {
			errs[pos] = err
			return
		}
		if st.N == 0 {
			return // filter excluded everything; no rules
		}
		compact, _, err := compacted(rows)
		if err != nil {
			errs[pos] = err
			return
		}
		sc := s.scratch()
		defer s.scratches.Put(sc)
		byPos[pos], errs[pos] = driverRules(schema, r.Drivers[pos], r.Objs, r.Filter,
			r.Kinds, r.MinSupport, r.MinConfidence, compact,
			func(k int) (*core.Prepared, error) { return rows.V(r.Objs[k]) }, sc)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var rules []Rule
	for _, rs := range byPos {
		rules = append(rules, rs...)
	}
	sort.SliceStable(rules, func(i, j int) bool {
		return rules[i].Lift() > rules[j].Lift()
	})
	return rules, nil
}

// group looks a driver group up in the batch's working set, with the
// solver inputs the session's cache keeps for it.
func (s *Session) group(set *plan.StatsSet, key plan.GroupKey) (*plan.Stats1D, *plan.PreparedRows, error) {
	st, ok := set.Groups[key]
	if !ok {
		return nil, nil, fmt.Errorf("miner: group %+v missing from working set", key)
	}
	return st, s.c.Prepared(key, st), nil
}

// compacted returns the group's non-empty buckets and their original
// positions (see PreparedRows.Compacted); every answer reports their
// observed value extremes.
func compacted(rows *plan.PreparedRows) (*bucketing.Counts, []int, error) {
	compact, keep := rows.Compacted()
	if compact.MinVal == nil {
		return nil, nil, fmt.Errorf("miner: extremes missing from cached group")
	}
	return compact, keep, nil
}

// extractConjunctive reruns the §4.3 recipe on the two cached groups:
// u_i over C1 and v_i over C1 ∧ C2 share one set of boundaries. The
// (u, v) pair spans two statistics, so its solver inputs are prepared
// per request, on a pooled Scratch.
func (s *Session) extractConjunctive(r *plan.Resolved, set *plan.StatsSet) ([]Rule, error) {
	schema := s.rel.Schema()
	uStats, uRows, err := s.group(set, r.UKey)
	if err != nil {
		return nil, err
	}
	vStats, _, err := s.group(set, r.VKey)
	if err != nil {
		return nil, err
	}
	if uStats.N == 0 {
		return nil, nil // C1 excludes everything
	}
	// Compact on u (v is bounded by u bucketwise).
	compact, keep, err := compacted(uRows)
	if err != nil {
		return nil, err
	}
	v := make([]float64, compact.M)
	hits := 0
	for j := range v {
		i := j
		if keep != nil {
			i = keep[j]
		}
		v[j] = float64(vStats.U[i])
		hits += vStats.U[i]
	}
	cond := condString(schema, r.C1)
	objNames := condString(schema, r.C2)
	base := Rule{
		Numeric:   schema[r.Drivers[0]].Name,
		Objective: objNames,
		// ObjectiveValue is absorbed into the rendered conjunction.
		ObjectiveValue: true,
		Condition:      cond,
		Baseline:       float64(hits) / float64(compact.N),
		Buckets:        compact.M,
	}
	sc := s.scratch()
	defer s.scratches.Put(sc)
	p, err := sc.Prepare(compact.U, v)
	if err != nil {
		return nil, err
	}
	return appendKindRules(nil, base, compact, p, r.Kinds, r.MinSupport, r.MinConfidence, sc)
}

// extractTopK mines the ranked disjoint ranges from the cached group:
// the first, whole-range segment sweeps the group's prepared row, the
// split segments are prepared on a pooled Scratch.
func (s *Session) extractTopK(r *plan.Resolved, set *plan.StatsSet) ([]Rule, error) {
	schema := s.rel.Schema()
	_, rows, err := s.group(set, r.Keys[0])
	if err != nil {
		return nil, err
	}
	compact, _, err := compacted(rows)
	if err != nil {
		return nil, err
	}
	p, err := rows.V(r.Objs[0])
	if err != nil {
		return nil, err
	}
	sc := s.scratch()
	defer s.scratches.Put(sc)
	var pairs []core.Pair
	switch r.Kinds[0] {
	case OptimizedConfidence:
		pairs, err = p.TopKSlopePairs(r.MinSupport*float64(compact.N), r.K, sc)
	case OptimizedSupport:
		pairs, err = p.TopKSupportPairs(r.MinConfidence, r.K, sc)
	default:
		return nil, fmt.Errorf("miner: unknown rule kind %v", r.Kinds[0])
	}
	if err != nil {
		return nil, err
	}
	_, hits := p.Totals()
	rules := make([]Rule, 0, len(pairs))
	for _, pair := range pairs {
		rule := Rule{
			Kind:           r.Kinds[0],
			Numeric:        schema[r.Drivers[0]].Name,
			Objective:      schema[r.Objs[0].Attr].Name,
			ObjectiveValue: r.Objs[0].Want,
			Baseline:       hits / float64(compact.N),
			Buckets:        compact.M,
		}
		fillPair(&rule, pair, compact)
		rules = append(rules, rule)
	}
	return rules, nil
}

// extractAverage answers the Section 5 decision-support queries by
// sweeping the cached group's prepared target-sum row.
func (s *Session) extractAverage(r *plan.Resolved, set *plan.StatsSet) (*AvgRange, error) {
	schema := s.rel.Schema()
	_, rows, err := s.group(set, r.Keys[0])
	if err != nil {
		return nil, err
	}
	compact, _, err := compacted(rows)
	if err != nil {
		return nil, err
	}
	p, err := rows.Sum(r.Target)
	if err != nil {
		return nil, err
	}
	driver := schema[r.Drivers[0]].Name
	target := schema[r.Target].Name
	sc := s.scratch()
	defer s.scratches.Put(sc)
	var pair core.Pair
	var found bool
	if r.Op == plan.OpAverage {
		pair, found, err = p.OptimalSlopePair(r.MinSupport*float64(compact.N), sc)
		if err == nil && !found {
			err = fmt.Errorf("miner: no range reaches support %g", r.MinSupport)
		}
	} else {
		pair, found, err = p.OptimalSupportPair(r.MinAverage, sc)
		if err == nil && !found {
			err = fmt.Errorf("miner: no range reaches average %g", r.MinAverage)
		}
	}
	if err != nil {
		return nil, err
	}
	_, total := p.Totals()
	out := fillAvg(driver, target, pair, compact, total)
	return &out, nil
}

// extract2D assembles the 2-D engine over the batch's cached pair
// grids and runs the region kernels (all2d.go).
func (s *Session) extract2D(r *plan.Resolved, set *plan.StatsSet) (*Result2D, error) {
	cfg := s.cfg
	cfg.MinSupport, cfg.MinConfidence = r.MinSupport, r.MinConfidence
	eng := &engine2D{
		cfg:       cfg,
		r:         r,
		objective: s.rel.Schema()[r.ObjAttr].Name,
		tuples:    s.rel.NumTuples(),
		bounds:    make([]bucketing.Boundaries, len(r.Attrs)),
	}
	for k, attr := range r.Attrs {
		b, ok := set.Bounds[plan.BoundKey{Attr: attr, M: r.Side}]
		if !ok {
			return nil, fmt.Errorf("miner: boundaries for attribute %d missing from working set", attr)
		}
		eng.bounds[k] = b
	}
	pk := 0
	for i := 0; i < len(r.Attrs); i++ {
		for j := i + 1; j < len(r.Attrs); j++ {
			st, ok := set.Pairs[r.PairKys[pk]]
			pk++
			if !ok {
				return nil, fmt.Errorf("miner: pair grid (%s, %s) missing from working set", r.Names[i], r.Names[j])
			}
			eng.pairs = append(eng.pairs, pair2D{ai: i, bi: j, Stats2D: st})
		}
	}
	return eng.mineAll()
}

// --- Session-bound variants of the one-shot entry points. Each builds
// the corresponding Query, so repeated calls share the session cache:
// re-querying with different thresholds, kinds, or region classes
// rescans nothing.

// MineAll mines both optimized rules for every (numeric, Boolean)
// attribute combination under the session config. See the package
// function MineAll.
func (s *Session) MineAll() (*Result, error) {
	kinds := []RuleKind{OptimizedSupport, OptimizedConfidence}
	if s.cfg.MineGain {
		kinds = append(kinds, OptimizedGain)
	}
	a, err := s.one(Query{Op: OpRules, Kinds: kinds, Negations: s.cfg.MineNegations})
	if err != nil {
		return nil, err
	}
	return &Result{Rules: a.Rules, Tuples: a.Tuples, Config: s.cfg}, nil
}

// Mine computes the optimized-support and optimized-confidence rules
// for one (numeric, Boolean) attribute pair, optionally under
// presumptive conditions. See the package function Mine.
func (s *Session) Mine(numeric, objective string, objectiveValue bool,
	conditions []Condition) (supportRule, confidenceRule *Rule, err error) {
	a, err := s.one(Query{
		Op: OpRules, Numeric: numeric, Objective: objective,
		ObjectiveValue: objectiveValue, Conditions: conditions,
	})
	if err != nil {
		return nil, nil, err
	}
	return a.rule(OptimizedSupport), a.rule(OptimizedConfidence), nil
}

// MineConjunctive mines the fully general §4.3 rule form. See the
// package function MineConjunctive.
func (s *Session) MineConjunctive(numeric string, objectives, conditions []Condition) (supportRule, confidenceRule *Rule, err error) {
	a, err := s.one(Query{
		Op: OpConjunctive, Numeric: numeric,
		Objectives: objectives, Conditions: conditions,
	})
	if err != nil {
		return nil, nil, err
	}
	return a.rule(OptimizedSupport), a.rule(OptimizedConfidence), nil
}

// MineTopK mines up to k pairwise-disjoint optimized ranges. See the
// package function MineTopK.
func (s *Session) MineTopK(numeric, objective string, objectiveValue bool,
	kind RuleKind, k int) ([]Rule, error) {
	a, err := s.one(Query{
		Op: OpTopK, Numeric: numeric, Objective: objective,
		ObjectiveValue: objectiveValue, Kinds: []RuleKind{kind}, K: k,
	})
	if err != nil {
		return nil, err
	}
	return a.Rules, nil
}

// MaxAverageRange finds the driver range maximizing the target average
// among ranges with support at least minSupport. See the package
// function MaxAverageRange.
func (s *Session) MaxAverageRange(driver, target string, minSupport float64) (AvgRange, error) {
	a, err := s.one(Query{Op: OpAverage, Numeric: driver, Target: target, MinSupport: minSupport})
	if err != nil {
		return AvgRange{}, err
	}
	return *a.Range, nil
}

// MaxSupportRange finds the driver range maximizing support among
// ranges with target average at least minAverage. See the package
// function MaxSupportRange.
func (s *Session) MaxSupportRange(driver, target string, minAverage float64) (AvgRange, error) {
	a, err := s.one(Query{Op: OpSupportRange, Numeric: driver, Target: target, MinAverage: minAverage})
	if err != nil {
		return AvgRange{}, err
	}
	return *a.Range, nil
}

// MineAll2D mines 2-D optimized rules for every requested attribute
// pair. See the package function MineAll2D.
func (s *Session) MineAll2D(opt Options2D) (*Result2D, error) {
	q := Query{
		Op: OpRules2D, Numerics: opt.Numerics,
		Objective: opt.Objective, ObjectiveValue: opt.ObjectiveValue,
		Kinds: opt.Kinds, Regions: opt.Regions, GridSide: opt.GridSide,
	}
	a, err := s.one(q)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg
	return &Result2D{Rules: a.Rules2D, Regions: a.Regions, Pairs: a.Pairs,
		Tuples: a.Tuples, Config: cfg}, nil
}

// Mine2D mines the optimized rectangle rule of one kind over one
// attribute pair. See the package function Mine2D.
func (s *Session) Mine2D(numericA, numericB, objective string, objectiveValue bool,
	kind RuleKind, gridSide int) (*Rule2D, error) {
	a, err := s.one(Query{
		Op: OpRules2D, Numeric: numericA, NumericB: numericB,
		Objective: objective, ObjectiveValue: objectiveValue,
		Kinds: []RuleKind{kind}, GridSide: gridSide,
	})
	if err != nil {
		return nil, err
	}
	if a.Pairs == 0 {
		return nil, fmt.Errorf("miner: no tuples with finite (%s, %s) values", numericA, numericB)
	}
	if len(a.Rules2D) == 0 {
		return nil, nil
	}
	return &a.Rules2D[0], nil
}

// MineXMonotone mines the gain-optimal x-monotone region over one
// attribute pair. See the package function MineXMonotone.
func (s *Session) MineXMonotone(numericA, numericB, objective string, objectiveValue bool,
	gridSide int) (*RegionRule, error) {
	return s.mineRegion(numericA, numericB, objective, objectiveValue, gridSide, XMonotoneClass)
}

// MineRectilinearConvex mines the gain-optimal rectilinear-convex
// region over one attribute pair. See the package function
// MineRectilinearConvex.
func (s *Session) MineRectilinearConvex(numericA, numericB, objective string, objectiveValue bool,
	gridSide int) (*RegionRule, error) {
	return s.mineRegion(numericA, numericB, objective, objectiveValue, gridSide, RectilinearConvexClass)
}

func (s *Session) mineRegion(numericA, numericB, objective string, objectiveValue bool,
	gridSide int, class RegionClass) (*RegionRule, error) {
	a, err := s.one(Query{
		Op: OpRules2D, Numeric: numericA, NumericB: numericB,
		Objective: objective, ObjectiveValue: objectiveValue,
		Kinds: []RuleKind{}, Regions: []RegionClass{class}, GridSide: gridSide,
	})
	if err != nil {
		return nil, err
	}
	if a.Pairs == 0 {
		return nil, fmt.Errorf("miner: no tuples with finite (%s, %s) values", numericA, numericB)
	}
	if len(a.Regions) == 0 {
		return nil, nil
	}
	return &a.Regions[0], nil
}

// one executes a single-query batch and unwraps its answer.
func (s *Session) one(q Query) (*Answer, error) {
	answers, err := s.ExecuteBatch([]Query{q})
	if err != nil {
		return nil, err
	}
	if answers[0].Err != nil {
		return nil, answers[0].Err
	}
	return &answers[0], nil
}
