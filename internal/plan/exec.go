package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"optrule/internal/bucketing"
	"optrule/internal/region"
	"optrule/internal/relation"
)

// AttrRNG derives the deterministic random stream for one numeric
// attribute's sampling pass. EVERY boundary build — fused, cached, or
// legacy per-attribute — must draw from this stream: sessions, one-shot
// wrappers, and the pre-refactor pipelines stay boundary-identical
// (and therefore rule-identical) only because they all do.
func AttrRNG(seed int64, attr int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(attr)*1e6 + 17))
}

// Run materializes every statistic in req, reading the relation at
// most twice: one fused sampling scan builds every missing boundary
// set, one fused counting scan fills every missing count group and
// pair grid. Statistics already covered by cache cost nothing. The
// returned StatsSet is the batch's private working set — extraction
// reads it without touching the cache again, so concurrent eviction
// cannot invalidate an in-flight batch.
func Run(rel relation.Relation, d Defaults, cache Cache, req *Requirements) (*StatsSet, error) {
	return RunContext(context.Background(), rel, d, cache, req)
}

// RunContext is Run under a context: cancellation and deadlines are
// observed between phases, between batches of the counting scan, and
// throughout its worker pool (whose per-attempt timeouts derive from
// it). The sampling scan itself runs to completion — it is
// bounded by the sample size, not the relation size.
func RunContext(ctx context.Context, rel relation.Relation, d Defaults, cache Cache, req *Requirements) (*StatsSet, error) {
	set := newStatsSet()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1: coverage. Split the requirements into cache hits and
	// misses; only the misses will scan. An entry from a different cache
	// generation never counts as a hit — it summarizes a different row
	// set than the batch executes against (the delta executor normally
	// folds or drops every entry on refresh, so this guard only fires on
	// exotic cache implementations or interleavings, but correctness must
	// not depend on that).
	var groups []*GroupNeed
	for _, gk := range req.GroupOrder {
		need := req.Groups[gk]
		if have, ok := cache.Get1D(gk); ok && have.Gen == req.Gen && have.Covers(need) {
			set.Groups[gk] = have
			continue
		}
		groups = append(groups, need)
	}
	var pairs []*PairNeed
	for _, pk := range req.PairOrder {
		if have, ok := cache.Get2D(pk); ok && have.Gen == req.Gen {
			set.Pairs[pk] = have
			continue
		}
		pairs = append(pairs, req.Pairs[pk])
	}

	// Phase 2: boundaries. Scheduled groups need theirs to count with;
	// pairs need BOTH axes' boundaries even on a grid cache hit, because
	// 2-D extraction translates column buckets back to value ranges. A
	// covered 1-D group, by contrast, needs no boundaries at all — its
	// extraction runs on counts alone — so an evicted boundary entry
	// must not cost a cache-served query a sampling scan.
	var boundOrder []BoundKey
	wantBound := func(k BoundKey) {
		if _, ok := set.Bounds[k]; ok {
			return
		}
		if b, ok := cache.GetBounds(k); ok {
			set.Bounds[k] = b
			return
		}
		set.Bounds[k] = bucketing.Boundaries{} // placeholder: scheduled
		boundOrder = append(boundOrder, k)
	}
	for _, need := range groups {
		wantBound(BoundKey{Attr: need.Driver, M: need.Key.M, Exact: need.Key.Exact})
	}
	for _, pk := range req.PairOrder {
		wantBound(BoundKey{Attr: pk.A, M: pk.Side})
		wantBound(BoundKey{Attr: pk.B, M: pk.Side})
	}
	if len(boundOrder) > 0 {
		specs := make([]bucketing.BoundarySpec, len(boundOrder))
		rngs := make([]*rand.Rand, len(boundOrder))
		for i, bk := range boundOrder {
			exact := 0
			if bk.Exact {
				exact = d.ExactDomainLimit
			}
			specs[i] = bucketing.BoundarySpec{Attr: bk.Attr, M: bk.M,
				SampleFactor: d.SampleFactor, ExactDomainLimit: exact}
			rngs[i] = AttrRNG(d.Seed, bk.Attr)
		}
		bounds, err := bucketing.MultiSampledBoundarySpecs(rel, specs, rngs)
		if err != nil {
			return nil, fmt.Errorf("plan: bucketing: %w", err)
		}
		for i, bk := range boundOrder {
			set.Bounds[bk] = bounds[i]
			cache.PutBounds(bk, bounds[i], rel.NumTuples())
		}
	}

	// Phase 3: one fused counting scan for every miss.
	if len(groups) == 0 && len(pairs) == 0 {
		return set, nil // fully served from cache: zero scans
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := countRange(ctx, rel, d, set, groups, pairs, 0, rel.NumTuples()); err != nil {
		return nil, err
	}
	// Publish through the cache, which merges fresh rows into any
	// concurrently created entries; the merged entry is what the batch
	// binds to. Fresh statistics carry the batch's cache generation so a
	// partial computed before a concurrent append can never be merged
	// into an entry the delta executor already advanced.
	for _, need := range groups {
		set.Groups[need.Key].Gen = req.Gen
		set.Groups[need.Key] = cache.Put1D(need.Key, set.Groups[need.Key])
	}
	for _, need := range pairs {
		set.Pairs[need.Key].Gen = req.Gen
		set.Pairs[need.Key] = cache.Put2D(need.Key, set.Pairs[need.Key])
	}
	return set, nil
}

// scanParallelism picks the counting scan's worker count. 1-D counting
// parallelism stays opt-in (Config.PEs): each chunk of a parallel scan
// allocates its own tally state, which a schedule of many 1-D groups
// pays for in memory. A pure pair-grid scan parallelizes by default.
// Every merge of integer tallies is exact, so results never depend on
// the worker count. Groups accumulating float target sums force a
// serial scan, so totals are bit-reproducible regardless of
// segmentation (the average-operator queries have always accumulated
// serially).
func scanParallelism(rel relation.Relation, d Defaults, groups []*GroupNeed, pairs []*PairNeed) int {
	for _, g := range groups {
		if len(g.Targets) > 0 {
			return 1
		}
	}
	pes := d.PEs
	if pes == 0 && len(groups) == 0 {
		pes = runtime.GOMAXPROCS(0)
	}
	if pes <= 1 {
		return 1
	}
	if _, ok := rel.(relation.RangeScanner); !ok {
		return 1
	}
	return pes
}

// ---------------------------------------------------------------------
// The counting executor: the paper's parallel counting (Algorithm 3.2)
// once, for every caller. Rows are split into chunks, each chunk is
// tallied into a private partial, and the partials are summed in chunk
// order. Batches count [0, n), delta refreshes an appended tail; the
// worker count and Defaults.Scatter decide who scans each chunk and
// what a failed chunk costs (see recovery in scatter.go).

// countRange runs the fused counting scan of the scheduled groups and
// pairs over rows [start, end) and publishes the totals into set. Every
// schedule runs on the one general kernel.
//
// Without a scatter pool and with one worker it issues exactly one
// scan of the range. Otherwise the whole relation's chunk plan —
// shard-exact scatterCuts for a scatter pool, cost-balanced
// PlanScanChunks otherwise — is clipped to the range, a pool drains one
// queue of chunks, and each chunk keeps its own partial. Chunks
// PlanScanChunks proved empty under the pushdown predicate are settled
// without a scan. The partials merge in chunk order, so integer statistics are
// bit-identical across worker counts, placements, steal orders and
// recovery actions, and the first error in chunk order is the one
// reported. Cancellation is observed between batches, while waiting on
// a retry and across the pool.
func countRange(ctx context.Context, rel relation.Relation, d Defaults, set *StatsSet,
	groups []*GroupNeed, pairs []*PairNeed, start, end int) error {
	cols, numPos, boolPos := execLayout(groups, pairs)
	pred := commonFilterPred(groups, pairs)
	// direct counts one chunk in-process: the serial scan, the parallel
	// chunks and the scatter pool's last-resort fallback.
	direct := func(c relation.ScanChunk) (*execState, error) {
		st, err := newExecState(set, groups, pairs, numPos, boolPos, d.RefKernel)
		if err != nil {
			return nil, err
		}
		if c.Pruned {
			st.skip(c.End - c.Start)
			return st, nil
		}
		return st, scanChunk(ctx, rel, cols, pred, st, c.Start, c.End)
	}
	sc, workers := recovery(rel, d, groups)
	pes := len(workers)
	if workers == nil {
		pes = min(scanParallelism(rel, d, groups, pairs), end-start)
		if pes <= 1 {
			st, err := direct(relation.ScanChunk{Start: start, End: end})
			if err != nil {
				return fmt.Errorf("plan: counting: %w", err)
			}
			st.publish(set)
			return nil
		}
	}

	var planned []relation.ScanChunk
	if workers != nil {
		cuts := scatterCuts(rel, pes, cols, pred)
		for i := 1; i < len(cuts); i++ {
			planned = append(planned, relation.ScanChunk{Start: cuts[i-1], End: cuts[i]})
		}
	} else {
		planned = relation.PlanScanChunks(rel, pes, cols, pred)
	}
	// Clip the plan to the range. A clipped pruned chunk stays pruned:
	// every block group it overlaps is refuted.
	var chunks []relation.ScanChunk
	for _, c := range planned {
		c.Start, c.End = max(c.Start, start), min(c.End, end)
		if c.Start < c.End {
			chunks = append(chunks, c)
		}
	}
	if len(chunks) == 0 {
		chunks = []relation.ScanChunk{{Start: start, End: end}}
	}
	if workers != nil {
		sc.Stats.Tasks.Add(int64(len(chunks)))
	}

	// attempt runs one try of chunk i on pool slot s.
	attempt := func(s, i int) (*execState, error) {
		c := chunks[i]
		if workers == nil {
			return direct(c)
		}
		p, err := attemptTask(ctx, workers[s], &CountTask{Start: c.Start, End: c.End,
			Groups: groups, Pairs: pairs, Set: set}, sc.TaskTimeout)
		if err != nil {
			return nil, err
		}
		return p.st, nil
	}

	// Per-chunk scheduling state. A queued chunk is owned by whichever
	// slot received it, so only that slot touches its entries.
	states := make([]*execState, len(chunks))
	errs := make([]error, len(chunks))
	attempts := make([]int, len(chunks))
	lastSlot := make([]int, len(chunks))
	queue := make(chan int, len(chunks)) // one slot per chunk: a requeue never blocks
	for i := range chunks {
		lastSlot[i] = -1
		queue <- i
	}
	var pending atomic.Int64
	pending.Store(int64(len(chunks)))
	settled := make(chan struct{}) // closed once every chunk succeeded or spent its attempts
	settle := func() {
		if pending.Add(-1) == 0 {
			close(settled)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < pes; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var i int
				select {
				case <-settled:
					return
				case <-ctx.Done():
					return
				case i = <-queue:
				}
				// Re-route: leave a chunk this worker just failed to another.
				if len(workers) > 1 && lastSlot[i] == s {
					queue <- i
					if !sleepCtx(ctx, time.Millisecond) {
						return
					}
					continue
				}
				st, err := attempt(s, i)
				if err == nil {
					states[i] = st
					settle()
					continue
				}
				if ctx.Err() != nil {
					return
				}
				if errors.Is(err, context.DeadlineExceeded) {
					sc.Stats.Timeouts.Add(1)
				}
				lastSlot[i], errs[i] = s, err
				attempts[i]++
				if attempts[i] >= sc.MaxAttempts {
					settle()
					continue
				}
				sc.Stats.Retries.Add(1)
				backoff := sc.Backoff << (attempts[i] - 1)
				if backoff > sc.MaxBackoff {
					backoff = sc.MaxBackoff
				}
				if !sleepCtx(ctx, backoff) {
					return
				}
				queue <- i
			}
		}()
	}
	wg.Wait() // every slot returns once all chunks settle or ctx ends
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("plan: counting: %w", err)
	}

	// A chunk that spent its attempts fails the scan unless the policy
	// has a fallback: the scatter pool's coordinator then counts it
	// directly, so a batch completes whenever the files are readable.
	for i, c := range chunks {
		if states[i] != nil {
			continue
		}
		if workers == nil {
			return fmt.Errorf("plan: counting: %w", errs[i])
		}
		sc.Stats.Fallbacks.Add(1)
		st, err := direct(c)
		if err != nil {
			return fmt.Errorf("plan: counting rows [%d,%d): %w (after %d worker attempts, last: %v)",
				c.Start, c.End, err, attempts[i], errs[i])
		}
		states[i] = st
	}
	total := states[0]
	for _, part := range states[1:] {
		total.merge(part)
	}
	total.publish(set)
	return nil
}

// scanChunk is the one chunk scan: it tallies rows [start, end) into
// st, through the zone-map pruned path when a pushdown predicate and a
// PrunedRangeScanner are at hand, and checks ctx between batches. The
// whole relation is read with a plain Scan, so relations without range
// scans count serially.
func scanChunk(ctx context.Context, rel relation.Relation, cols relation.ColumnSet,
	pred *relation.Predicate, st *execState, start, end int) error {
	count := func(b *relation.Batch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.countBatch(b)
		return nil
	}
	if pred != nil {
		if prs, ok := rel.(relation.PrunedRangeScanner); ok {
			return prs.ScanRangePruned(start, end, cols, pred, func(rows int) error {
				st.skip(rows)
				return nil
			}, count)
		}
	}
	if start == 0 && end == rel.NumTuples() {
		return rel.Scan(cols, count)
	}
	rs, ok := rel.(relation.RangeScanner)
	if !ok {
		return fmt.Errorf("plan: relation %T cannot scan row ranges", rel)
	}
	return rs.ScanRange(start, end, cols, count)
}

// boundsOf fetches a group's boundaries from the working set.
func (s *StatsSet) boundsOf(k BoundKey) (bucketing.Boundaries, error) {
	b, ok := s.Bounds[k]
	if !ok {
		return b, fmt.Errorf("plan: boundaries %+v missing from working set", k)
	}
	return b, nil
}

// ---------------------------------------------------------------------
// The counting kernel: any mix of 1-D groups and 2-D pair grids in
// one scan. Each tuple's bucket is located ONCE per distinct
// (attribute, resolution) and shared by every consumer; per-filter row
// masks are computed once per batch.

// effCombo is one distinct (boundary set, filter) combination's
// effective-index pass: eff[row] is the row's bucket index with
// masked-out and NaN-driver rows redirected to the trash slot m, so
// every group sharing the combination tallies with branch-free
// scatter loops. nans counts the batch's masked-in NaN-driver rows.
type effCombo struct {
	loc     int // locate task index
	maskIdx int // distinct filter index, -1 when unfiltered
	m       int // bucket count; also the trash slot

	eff  []int32
	nans int
}

// execState is one worker's private tally state.
type execState struct {
	numPos  map[int]int // attr -> position in cols.Numeric
	boolPos map[int]int // attr -> position in cols.Bool

	locKeys []BoundKey
	locCol  []int // column position per locate task
	locB    []bucketing.Boundaries
	idx     [][]int32 // per locate task, per batch row

	filters [][]bucketing.BoolCond // distinct filters (canonical key order)
	masks   [][]bool

	combos []*effCombo // distinct (loc, maskIdx) effective-index passes
	useRef bool        // run the reference per-tuple kernel instead

	groups []*groupState
	pairs  []*pairState
}

type groupState struct {
	need    *GroupNeed
	col     int // driver column position
	loc     int // locate task index
	maskIdx int // distinct filter index, -1 when unfiltered
	combo   int // effective-index pass (loc, maskIdx)
	m       int

	// Tally arrays are padded to m+1 slots: slot m is the trash slot
	// the vectorized kernel scatters masked-out and NaN-driver rows
	// into, so its inner loops carry no per-row branch. publish slices
	// the padding back off; merge folds it along with the real slots.
	total, nans int
	u           []int
	v           [][]int     // need.Bools order
	sum         [][]float64 // need.Targets order
	minv, maxv  []float64
	boolCol     []int
	boolWant    []bool
	targetCol   []int
}

type pairState struct {
	need       *PairNeed
	locA, locB int
	colA, colB int
	objCol     int
	want       bool

	// grid is the published result; the kernels tally into pu/pv —
	// padded (cells+1-slot) shadows of its flat backing whose last slot
	// absorbs rows falling outside either bucketing — and publish
	// copies the real cells in. The axis extreme arrays carry one trash
	// slot each for the same reason.
	grid       *region.Grid
	gu         []int
	gv         []float64
	cols       int
	pu         []int
	pv         []float64
	minA, maxA []float64
	minB, maxB []float64

	effCell []int32 // per batch row: flat cell index, or the trash cell
	effA    []int32 // row-bucket index, or its trash slot
	effB    []int32 // column-bucket index, or its trash slot
}

// layout computes the union column set and position maps.
func execLayout(groups []*GroupNeed, pairs []*PairNeed) (relation.ColumnSet, map[int]int, map[int]int) {
	var cols relation.ColumnSet
	numPos := map[int]int{}
	boolPos := map[int]int{}
	num := func(attr int) {
		if _, ok := numPos[attr]; !ok {
			numPos[attr] = len(cols.Numeric)
			cols.Numeric = append(cols.Numeric, attr)
		}
	}
	boo := func(attr int) {
		if _, ok := boolPos[attr]; !ok {
			boolPos[attr] = len(cols.Bool)
			cols.Bool = append(cols.Bool, attr)
		}
	}
	for _, g := range groups {
		num(g.Driver)
		for _, t := range g.Targets {
			num(t)
		}
		for _, bc := range g.Bools {
			boo(bc.Attr)
		}
		for _, bc := range g.Filter {
			boo(bc.Attr)
		}
	}
	for _, p := range pairs {
		num(p.A)
		num(p.B)
		boo(p.Obj.Attr)
	}
	return cols, numPos, boolPos
}

// newExecState builds one worker's tally state. ref selects the
// reference per-tuple kernel over the batch-vectorized one.
func newExecState(set *StatsSet, groups []*GroupNeed, pairs []*PairNeed,
	numPos, boolPos map[int]int, ref bool) (*execState, error) {
	st := &execState{numPos: numPos, boolPos: boolPos, useRef: ref}
	locOf := map[BoundKey]int{}
	locate := func(k BoundKey) (int, error) {
		if i, ok := locOf[k]; ok {
			return i, nil
		}
		b, err := set.boundsOf(k)
		if err != nil {
			return 0, err
		}
		i := len(st.locKeys)
		locOf[k] = i
		st.locKeys = append(st.locKeys, k)
		st.locCol = append(st.locCol, numPos[k.Attr])
		st.locB = append(st.locB, b)
		st.idx = append(st.idx, nil)
		return i, nil
	}
	maskOf := map[string]int{}
	maskIdx := func(filter []bucketing.BoolCond, key string) int {
		if key == "" {
			return -1
		}
		if i, ok := maskOf[key]; ok {
			return i
		}
		i := len(st.filters)
		maskOf[key] = i
		st.filters = append(st.filters, filter)
		st.masks = append(st.masks, nil)
		return i
	}
	comboOf := map[[2]int]int{}
	combo := func(loc, mi, m int) int {
		key := [2]int{loc, mi}
		if i, ok := comboOf[key]; ok {
			return i
		}
		i := len(st.combos)
		comboOf[key] = i
		st.combos = append(st.combos, &effCombo{loc: loc, maskIdx: mi, m: m})
		return i
	}
	for _, g := range groups {
		loc, err := locate(BoundKey{Attr: g.Driver, M: g.Key.M, Exact: g.Key.Exact})
		if err != nil {
			return nil, err
		}
		m := st.locB[loc].NumBuckets()
		mi := maskIdx(g.Filter, g.Key.Filter)
		gs := &groupState{
			need: g, col: numPos[g.Driver], loc: loc,
			maskIdx: mi, combo: combo(loc, mi, m), m: m,
			u: make([]int, m+1),
		}
		for _, bc := range g.Bools {
			gs.v = append(gs.v, make([]int, m+1))
			gs.boolCol = append(gs.boolCol, boolPos[bc.Attr])
			gs.boolWant = append(gs.boolWant, bc.Want)
		}
		for _, t := range g.Targets {
			gs.sum = append(gs.sum, make([]float64, m+1))
			gs.targetCol = append(gs.targetCol, numPos[t])
		}
		if g.TrackExtremes {
			gs.minv = make([]float64, m+1)
			gs.maxv = make([]float64, m+1)
			for i := range gs.minv {
				gs.minv[i] = math.Inf(1)
				gs.maxv[i] = math.Inf(-1)
			}
		}
		st.groups = append(st.groups, gs)
	}
	for _, p := range pairs {
		locA, err := locate(BoundKey{Attr: p.A, M: p.Side})
		if err != nil {
			return nil, err
		}
		locB, err := locate(BoundKey{Attr: p.B, M: p.Side})
		if err != nil {
			return nil, err
		}
		rows := st.locB[locA].NumBuckets()
		colsN := st.locB[locB].NumBuckets()
		g, err := region.NewGrid(rows, colsN)
		if err != nil {
			return nil, err
		}
		gu, gv, ok := g.Flat()
		if !ok {
			return nil, fmt.Errorf("plan: grid misses its flat backing")
		}
		ps := &pairState{
			need: p, locA: locA, locB: locB,
			colA: numPos[p.A], colB: numPos[p.B],
			objCol: boolPos[p.Obj.Attr], want: p.Obj.Want,
			grid: g, gu: gu, gv: gv, cols: g.Cols(),
			pu:   make([]int, rows*colsN+1),
			pv:   make([]float64, rows*colsN+1),
			minA: make([]float64, rows+1), maxA: make([]float64, rows+1),
			minB: make([]float64, colsN+1), maxB: make([]float64, colsN+1),
		}
		for i := range ps.minA {
			ps.minA[i], ps.maxA[i] = math.Inf(1), math.Inf(-1)
		}
		for i := range ps.minB {
			ps.minB[i], ps.maxB[i] = math.Inf(1), math.Inf(-1)
		}
		st.pairs = append(st.pairs, ps)
	}
	return st, nil
}

// countBatch tallies one batch into every group and pair: bucket
// indices are located once per (attribute, resolution), row masks are
// computed once per distinct filter, then either the batch-vectorized
// kernel or the reference per-tuple kernel consumes them. Both kernels
// feed every valid bucket the identical addition sequence in row
// order, so their outputs — float target sums included — are
// bit-identical.
func (st *execState) countBatch(b *relation.Batch) {
	n := b.Len
	// Bucket indices once per (attribute, resolution): every group and
	// pair sharing the boundary set shares the locate pass.
	for t := range st.locKeys {
		if cap(st.idx[t]) < n {
			st.idx[t] = make([]int32, n)
		}
		st.locB[t].LocateBatch(b.Numeric[st.locCol[t]][:n], st.idx[t][:n])
	}
	// Row masks once per distinct filter.
	for f := range st.filters {
		if cap(st.masks[f]) < n {
			st.masks[f] = make([]bool, n)
		}
		mask := st.masks[f][:n]
		for row := range mask {
			mask[row] = true
		}
		for _, bc := range st.filters[f] {
			col := b.Bool[st.boolPos[bc.Attr]]
			want := bc.Want
			for row := 0; row < n; row++ {
				if col[row] != want {
					mask[row] = false
				}
			}
		}
	}
	if st.useRef {
		st.countBatchRef(b)
		return
	}
	st.countBatchVec(b)
}

// countBatchVec is the batch-vectorized kernel. The per-tuple
// branching of the reference kernel — mask check, NaN check, extreme
// tracking, per-objective conditionals — is restructured into columnar
// passes: one effective-index pass per distinct (boundary set, filter)
// combination routes every excluded row to a trash slot, and each
// statistic then runs one tight scatter loop over the whole batch with
// no row-level control flow. Trash-slot garbage (counts, NaN sums,
// extremes of masked rows) never surfaces: publish slices it off.
func (st *execState) countBatchVec(b *relation.Batch) {
	n := b.Len
	for _, c := range st.combos {
		if cap(c.eff) < n {
			c.eff = make([]int32, n)
		}
		eff := c.eff[:n]
		idx := st.idx[c.loc][:n]
		trash := int32(c.m)
		nans := 0
		if c.maskIdx < 0 {
			for row, i := range idx {
				if i < 0 { // NaN driver: belongs to no bucket
					nans++
					i = trash
				}
				eff[row] = i
			}
		} else {
			mask := st.masks[c.maskIdx][:n]
			for row, i := range idx {
				if !mask[row] {
					eff[row] = trash
					continue
				}
				if i < 0 {
					nans++
					i = trash
				}
				eff[row] = i
			}
		}
		c.nans = nans
	}
	for _, gs := range st.groups {
		c := st.combos[gs.combo]
		eff := c.eff[:n]
		gs.total += n
		gs.nans += c.nans
		u := gs.u
		for _, e := range eff {
			u[e]++
		}
		if gs.minv != nil {
			col := b.Numeric[gs.col][:n]
			minv, maxv := gs.minv, gs.maxv
			for row, e := range eff {
				x := col[row]
				if x < minv[e] {
					minv[e] = x
				}
				if x > maxv[e] {
					maxv[e] = x
				}
			}
		}
		for k := range gs.v {
			vk := gs.v[k]
			colb := b.Bool[gs.boolCol[k]][:n]
			want := gs.boolWant[k]
			for row, e := range eff {
				// Flagless increment: the objective bit is ~50% either
				// way, so a conditional add would mispredict constantly.
				d := 0
				if colb[row] == want {
					d = 1
				}
				vk[e] += d
			}
		}
		for k := range gs.sum {
			sk := gs.sum[k]
			colt := b.Numeric[gs.targetCol[k]][:n]
			for row, e := range eff {
				sk[e] += colt[row]
			}
		}
	}
	for _, ps := range st.pairs {
		ia := st.idx[ps.locA][:n]
		ib := st.idx[ps.locB][:n]
		if cap(ps.effCell) < n {
			ps.effCell = make([]int32, n)
			ps.effA = make([]int32, n)
			ps.effB = make([]int32, n)
		}
		effCell := ps.effCell[:n]
		effA := ps.effA[:n]
		effB := ps.effB[:n]
		cols := int32(ps.cols)
		trashCell := int32(len(ps.pu) - 1)
		trashA := int32(len(ps.minA) - 1)
		trashB := int32(len(ps.minB) - 1)
		for row := 0; row < n; row++ {
			ri, rj := ia[row], ib[row]
			if ri < 0 || rj < 0 {
				// A row outside either axis's bucketing contributes to no
				// cell and — matching the reference kernel — to neither
				// axis's extremes.
				effCell[row] = trashCell
				effA[row] = trashA
				effB[row] = trashB
				continue
			}
			effCell[row] = ri*cols + rj
			effA[row] = ri
			effB[row] = rj
		}
		pu, pv := ps.pu, ps.pv
		for _, e := range effCell {
			pu[e]++
		}
		obj := b.Bool[ps.objCol][:n]
		want := ps.want
		for row, e := range effCell {
			x := 0.0
			if obj[row] == want {
				x = 1
			}
			pv[e] += x
		}
		colA := b.Numeric[ps.colA][:n]
		minA, maxA := ps.minA, ps.maxA
		for row, e := range effA {
			a := colA[row]
			if a < minA[e] {
				minA[e] = a
			}
			if a > maxA[e] {
				maxA[e] = a
			}
		}
		colB := b.Numeric[ps.colB][:n]
		minB, maxB := ps.minB, ps.maxB
		for row, e := range effB {
			bv := colB[row]
			if bv < minB[e] {
				minB[e] = bv
			}
			if bv > maxB[e] {
				maxB[e] = bv
			}
		}
	}
}

// countBatchRef is the reference per-tuple kernel: one branchy row
// loop per group and pair, kept both as the differential baseline the
// vectorized kernel is pinned against and as a Defaults.RefKernel
// escape hatch for regression triage. Every mode of the executor —
// serial, parallel, delta, scattered and the direct fallback — honors
// the switch. It shares the padded tally layout, so merge and publish
// are kernel-agnostic.
func (st *execState) countBatchRef(b *relation.Batch) {
	n := b.Len
	for _, gs := range st.groups {
		gs.total += n
		idx := st.idx[gs.loc][:n]
		col := b.Numeric[gs.col]
		var mask []bool
		if gs.maskIdx >= 0 {
			mask = st.masks[gs.maskIdx][:n]
		}
		for row := 0; row < n; row++ {
			if mask != nil && !mask[row] {
				continue
			}
			i := int(idx[row])
			if i < 0 { // NaN driver: belongs to no bucket
				gs.nans++
				continue
			}
			gs.u[i]++
			if gs.minv != nil {
				x := col[row]
				if x < gs.minv[i] {
					gs.minv[i] = x
				}
				if x > gs.maxv[i] {
					gs.maxv[i] = x
				}
			}
			for k := range gs.v {
				e := 0
				if b.Bool[gs.boolCol[k]][row] == gs.boolWant[k] {
					e = 1
				}
				gs.v[k][i] += e
			}
			for k := range gs.sum {
				gs.sum[k][i] += b.Numeric[gs.targetCol[k]][row]
			}
		}
	}
	for _, ps := range st.pairs {
		ia := st.idx[ps.locA][:n]
		ib := st.idx[ps.locB][:n]
		colA := b.Numeric[ps.colA]
		colB := b.Numeric[ps.colB]
		obj := b.Bool[ps.objCol]
		pu, pv, cols := ps.pu, ps.pv, ps.cols
		minA, maxA := ps.minA, ps.maxA
		minB, maxB := ps.minB, ps.maxB
		want := ps.want
		for row := 0; row < n; row++ {
			ri := int(ia[row])
			if ri < 0 {
				continue
			}
			rj := int(ib[row])
			if rj < 0 {
				continue
			}
			idx := ri*cols + rj
			pu[idx]++
			// Flagless objective tally (as in the 1-D counting kernel):
			// the objective bit is ~50% either way, so a conditional
			// increment would mispredict constantly.
			e := 0.0
			if obj[row] == want {
				e = 1
			}
			pv[idx] += e
			a := colA[row]
			if a < minA[ri] {
				minA[ri] = a
			}
			if a > maxA[ri] {
				maxA[ri] = a
			}
			bv := colB[row]
			if bv < minB[rj] {
				minB[rj] = bv
			}
			if bv > maxB[rj] {
				maxB[rj] = bv
			}
		}
	}
}

// skip settles rows a filter provably rejects without a scan: they
// count toward every group's Total, the only statistic such a row
// touches.
func (st *execState) skip(rows int) {
	for _, gs := range st.groups {
		gs.total += rows
	}
}

// merge folds other's tallies into st, padding slots included. All
// statistics are integer counts or extremes (float sums force a serial
// scan; the pair objective tallies are exact small integers in
// float64), so the merged state matches a serial scan exactly
// regardless of segmentation.
func (st *execState) merge(other *execState) {
	for i, gs := range st.groups {
		og := other.groups[i]
		gs.total += og.total
		gs.nans += og.nans
		for j := range gs.u {
			gs.u[j] += og.u[j]
		}
		for k := range gs.v {
			for j := range gs.v[k] {
				gs.v[k][j] += og.v[k][j]
			}
		}
		for k := range gs.sum {
			for j := range gs.sum[k] {
				//optlint:ignore floatmerge unreachable: float target sums force scanParallelism to 1 and useScatter rejects them, so countRange scans such a schedule once and never merges it
				gs.sum[k][j] += og.sum[k][j]
			}
		}
		if gs.minv != nil {
			for j := range gs.minv {
				if og.minv[j] < gs.minv[j] {
					gs.minv[j] = og.minv[j]
				}
				if og.maxv[j] > gs.maxv[j] {
					gs.maxv[j] = og.maxv[j]
				}
			}
		}
	}
	for i, ps := range st.pairs {
		op := other.pairs[i]
		for j := range ps.pu {
			ps.pu[j] += op.pu[j]
		}
		for j := range ps.pv {
			//optlint:ignore floatmerge pair objective tallies are exact small integer counts stored in float64; integer-valued addition is exact, so the fold order cannot change the result
			ps.pv[j] += op.pv[j]
		}
		for j := range ps.minA {
			if op.minA[j] < ps.minA[j] {
				ps.minA[j] = op.minA[j]
			}
			if op.maxA[j] > ps.maxA[j] {
				ps.maxA[j] = op.maxA[j]
			}
		}
		for j := range ps.minB {
			if op.minB[j] < ps.minB[j] {
				ps.minB[j] = op.minB[j]
			}
			if op.maxB[j] > ps.maxB[j] {
				ps.maxB[j] = op.maxB[j]
			}
		}
	}
}

// publish converts the final tally state into cached statistics,
// slicing the trash slots off every padded array (with full capacity
// caps, so no later append can reach into them) and copying the pair
// tallies into their grids' flat backing.
func (st *execState) publish(set *StatsSet) {
	for _, gs := range st.groups {
		var minv, maxv []float64
		if gs.minv != nil {
			minv = gs.minv[:gs.m:gs.m]
			maxv = gs.maxv[:gs.m:gs.m]
		}
		s := &Stats1D{
			M: gs.m, Total: gs.total, NaNs: gs.nans,
			U:      gs.u[:gs.m:gs.m],
			MinVal: minv, MaxVal: maxv,
			V:   map[bucketing.BoolCond][]int{},
			Sum: map[int][]float64{},
		}
		for _, u := range gs.u[:gs.m] {
			s.N += u
		}
		for k, bc := range gs.need.Bools {
			s.V[bc] = gs.v[k][:gs.m:gs.m]
		}
		for k, t := range gs.need.Targets {
			s.Sum[t] = gs.sum[k][:gs.m:gs.m]
		}
		set.Groups[gs.need.Key] = s
	}
	for _, ps := range st.pairs {
		copy(ps.gu, ps.pu) // padding slot beyond len(gu) stays behind
		copy(ps.gv, ps.pv)
		ra, ca := ps.grid.Rows(), ps.grid.Cols()
		set.Pairs[ps.need.Key] = &Stats2D{
			Grid: ps.grid,
			MinA: ps.minA[:ra:ra], MaxA: ps.maxA[:ra:ra],
			MinB: ps.minB[:ca:ca], MaxB: ps.maxB[:ca:ca],
			N:    ps.grid.Total(),
			Hits: int(ps.grid.SumV()),
		}
	}
}

// commonFilterPred returns the zone-map pushdown predicate when every
// scheduled statistic is a 1-D group carrying the same non-empty
// filter — the conjunctive-query shape. Rows in a storage block group
// the filter provably rejects wholesale then never leave the disk:
// they contribute only to each group's Total, which the skip callback
// settles without decoding a byte. Pair grids veto the pushdown (they
// count unfiltered rows), as does any filter divergence.
func commonFilterPred(groups []*GroupNeed, pairs []*PairNeed) *relation.Predicate {
	if len(pairs) > 0 || len(groups) == 0 {
		return nil
	}
	first := groups[0]
	if first.Key.Filter == "" {
		return nil
	}
	for _, g := range groups[1:] {
		if g.Key.Filter != first.Key.Filter {
			return nil
		}
	}
	p := &relation.Predicate{}
	for _, bc := range first.Filter {
		p.Bools = append(p.Bools, relation.BoolPredicate{Attr: bc.Attr, Want: bc.Want})
	}
	return p
}
