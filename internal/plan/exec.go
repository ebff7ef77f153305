package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"optrule/internal/bucketing"
	"optrule/internal/fanout"
	"optrule/internal/region"
	"optrule/internal/relation"
)

// AttrRNG derives the deterministic random stream for one numeric
// attribute's sampling pass. Every boundary build — fused or cached,
// and the miner's test oracles — must draw from this stream: sessions,
// one-shot wrappers, and the per-attribute reference pipelines stay
// boundary-identical (and therefore rule-identical) only because they
// all do.
func AttrRNG(seed int64, attr int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(attr)*1e6 + 17))
}

// Run materializes every statistic in req, reading the relation at
// most twice: a sampling phase builds every missing boundary set (point
// reads on the worker pool, or one scan when a set asks for finest
// buckets), one fused counting scan fills every missing count group and
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
// it). The sampling phase itself runs to completion — it is
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
		wantBound(need.boundKey())
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
		bounds, err := bucketing.SampleBoundaries(rel, specs, rngs, scanParallelism(d))
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

// scanParallelism picks the worker count of the sampling phase and the
// counting scan: Defaults.PEs, where 0 means runtime.GOMAXPROCS(0) and
// 1 forces a serial run. The schedule does not matter: each boundary
// set is a function of its own rows and random stream, integer tallies
// and extremes merge exactly, and float target sums replay in the
// serial scan's addition order (see sumLog), so every statistic is
// bit-identical at any worker count.
func scanParallelism(d Defaults) int {
	if d.PEs == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(1, d.PEs)
}

// ---------------------------------------------------------------------
// The counting executor: the paper's parallel counting (Algorithm 3.2)
// once, for every caller. Rows are split into chunks, each chunk is
// tallied into a private partial, and the partials are summed. Batches
// count [0, n), delta refreshes an appended tail; Defaults.PEs sets the
// worker count and Defaults.Scatter what a failed chunk costs (see
// scatter.go).

// countRange runs the fused counting scan of the scheduled groups and
// pairs over rows [start, end) and publishes the totals into set. Every
// schedule runs on the one general kernel and the one pool.
//
// With one worker the pool has one slot and the single chunk [start,
// end), so it issues exactly one scan of the range. Otherwise the whole
// relation's cost-balanced PlanScanChunks plan is clipped to the range
// and the slots drain one queue of chunks; chunks the plan proved empty
// under the pushdown predicate are settled without a scan. Each slot
// folds every chunk it drains into one lazily built tally state, so
// tally memory grows with the worker count rather than the chunk count.
// Float target sums bypass the tally states: each chunk logs them and a
// sumLog replays the logs in chunk order, in chunks of at most about
// sumChunkRows rows, on top of the cached sums of any scheduled group
// already in set (a refresh's tail scan; see newSumLog). A failed attempt is retried under Defaults.Scatter
// by the slot that made it, which first drops its state and requeues
// every other chunk the state had folded. Every merged statistic is an
// integer count or an extreme, so the totals are bit-identical across
// worker counts, steal orders and retries whatever the fold order. A
// chunk that spends its attempts fails the scan, with the first error
// in chunk order. Cancellation is observed between batches, while
// waiting on a retry and across the pool.
func countRange(ctx context.Context, rel relation.Relation, d Defaults, set *StatsSet,
	groups []*GroupNeed, pairs []*PairNeed, start, end int) error {
	cols, numPos, boolPos := execLayout(groups, pairs)
	pred := commonFilterPred(groups, pairs)
	pes := max(1, min(scanParallelism(d), end-start))
	chunks := []relation.ScanChunk{{Start: start, End: end}}
	if pes > 1 {
		// Target sums wait for replay until every earlier chunk is done,
		// so their scans plan chunks of at most about sumChunkRows rows.
		planPEs := pes
		if carriesTargets(groups) {
			planPEs = max(pes, (rel.NumTuples()+sumChunkRows-1)/sumChunkRows)
		}
		// Clip the plan to the range. A clipped pruned chunk stays
		// pruned: every block group it overlaps is refuted.
		var clipped []relation.ScanChunk
		for _, c := range relation.PlanScanChunks(rel, planPEs, cols, pred) {
			c.Start, c.End = max(c.Start, start), min(c.End, end)
			if c.Start < c.End {
				clipped = append(clipped, c)
			}
		}
		if len(clipped) > 0 {
			chunks = clipped
		}
	}
	// sums is the ordered replay of float target sums; nil for an
	// integer-only schedule.
	sums, err := newSumLog(set, groups, len(chunks), pes)
	if err != nil {
		return fmt.Errorf("plan: counting: %w", err)
	}
	policy := d.Scatter
	stats := policy.Stats
	if stats == nil {
		stats = &ScatterStats{}
	}

	// attempt counts chunk i once into st, building st first when it is
	// nil, under the per-attempt deadline. A chunk counted to the end
	// completes its log.
	attempt := func(st *execState, i int) (*execState, error) {
		if st == nil {
			var err error
			if st, err = newExecState(ctx, set, groups, pairs, numPos, boolPos, sums); err != nil {
				return nil, err
			}
		}
		if st.clog != nil {
			st.clog.begin(i)
		}
		actx := ctx
		if policy.TaskTimeout > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, policy.TaskTimeout)
			defer cancel()
		}
		if c := chunks[i]; c.Pruned {
			st.skip(c.End - c.Start)
		} else if err := scanChunk(actx, rel, cols, pred, st, c.Start, c.End); err != nil {
			return st, err
		}
		if st.clog != nil {
			st.clog.finish()
		}
		return st, nil
	}

	// A queued chunk is owned by whichever slot received it, so only
	// that slot touches its entries; the queue holds every chunk at most
	// once, so a requeue never blocks.
	errs := make([]error, len(chunks))
	queue := make(chan int, len(chunks))
	for i := range chunks {
		queue <- i
	}
	var pending atomic.Int64
	pending.Store(int64(len(chunks)))
	settled := make(chan struct{}) // closed once every chunk is counted or failed for good
	settle := func() {
		if pending.Add(-1) == 0 {
			close(settled)
		}
	}
	// slots[s] is pool slot s's tally state, nil until it counts a chunk
	// and after a failed attempt.
	slots := make([]*execState, pes)
	slot := func(s int) {
		var folded []int // chunks slots[s] holds
		for {
			var i int
			select {
			case <-settled:
				return
			case <-ctx.Done():
				return
			case i = <-queue:
			}
			for failures := 1; ; failures++ {
				st, err := attempt(slots[s], i)
				if err == nil {
					slots[s], folded = st, append(folded, i)
					settle()
					break
				}
				// The failed attempt left the state partial.
				slots[s] = nil
				if ctx.Err() != nil {
					sums.finish(i)
					return
				}
				if errors.Is(err, context.DeadlineExceeded) {
					stats.Timeouts.Add(1)
				}
				if failures >= policy.MaxAttempts {
					errs[i] = err
					sums.finish(i)
					settle()
					folded = folded[:0]
					break
				}
				stats.Retries.Add(1)
				pending.Add(int64(len(folded)))
				for _, j := range folded {
					queue <- j
				}
				folded = folded[:0]
				if !sleepCtx(ctx, backoff(failures)) {
					sums.finish(i)
					return
				}
			}
		}
	}
	fanout.Run(pes, slot) // every slot returns once all chunks settle or ctx ends
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("plan: counting: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("plan: counting: %w", err)
		}
	}
	var total *execState
	for _, st := range slots {
		switch {
		case st == nil: // a slot that drew no chunk
		case total == nil:
			total = st
		default:
			total.merge(st)
		}
	}
	total.publish(set, sums)
	return nil
}

// scanChunk is the one chunk scan: it tallies rows [start, end) into
// st through one pruned range scan (pred is nil when nothing is pushed
// down) and checks ctx between batches. Without a predicate nothing is
// skipped, so no skip callback is allocated.
func scanChunk(ctx context.Context, rel relation.Relation, cols relation.ColumnSet,
	pred *relation.Predicate, st *execState, start, end int) error {
	var skip func(rows int) error
	if pred != nil {
		skip = func(rows int) error {
			st.skip(rows)
			return nil
		}
	}
	return rel.ScanRangePruned(start, end, cols, pred, skip, func(b *relation.Batch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.countBatch(b)
		return nil
	})
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
// masks and per-condition-run row codes are computed once per batch.
// Counts live in integer scatter tables and are derived into U, V and
// N only when the scan publishes; float target sums go through the
// ordered replay (see sumLog).

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

// laneBits is how many Boolean conditions one lane packs into a row
// code at most: a lane over b conditions has 1<<b cells per bucket.
const laneBits = 3

// codePass is one distinct run of up to laneBits (Bool column, want)
// conditions: code[row] has bit k set when the row meets condition k.
// Every lane over the same run shares the pass.
type codePass struct {
	cols []int // Bool column position per condition
	flip uint8 // bit k set when condition k wants false
	code []uint8
}

// cells is a scatter table of 32-bit counts. Before a count could wrap,
// fold adds the counts into 64-bit totals, allocated on first use.
type cells struct {
	n    []uint32
	wide []int
}

// execState is one worker's private tally state.
type execState struct {
	boolPos map[int]int // attr -> position in cols.Bool

	locKeys []BoundKey
	locCol  []int // column position per locate task
	locB    []bucketing.Boundaries
	idx     [][]int32 // per locate task, per batch row

	filters [][]bucketing.BoolCond // distinct filters (canonical key order)
	masks   [][]bool

	combos []*effCombo // distinct (loc, maskIdx) effective-index passes
	codes  []*codePass // distinct condition runs

	// tallied counts the rows scattered into the 32-bit cells since
	// their last fold; no cell can hold more.
	tallied int64

	// kernel, when set, replaces countBatchVec. Only this package's
	// tests set it, to run the reference per-tuple kernel.
	kernel func(*execState, *relation.Batch)

	// clog, when set, logs the target-carrying groups' sums: a tally
	// state keeps no sums of its own.
	clog *chunkLog

	groups []*groupState
	pairs  []*pairState
}

// groupState tallies one group. Each lane covers a run of up to
// laneBits of need.Bools, in order: cell e<<bits | code of its table
// counts bucket e's rows whose conditions match code (bit k for the
// run's condition k). A group without Bools keeps one zero-bit lane,
// its bucket counts. Tables and extremes carry one trash bucket, m,
// that absorbs masked-out and NaN-driver rows so the vectorized
// kernel's loops carry no per-row branch; publish drops it.
type groupState struct {
	need    *GroupNeed
	col     int // driver column position
	loc     int // locate task index
	maskIdx int // distinct filter index, -1 when unfiltered
	combo   int // effective-index pass (loc, maskIdx)
	m       int

	total, nans int
	lanes       []*lane
	minv, maxv  []float64
	targetCol   []int
}

// lane is one group's table over one condition run.
type lane struct {
	code int // code pass index; -1 for the zero-bit lane
	bits uint
	cells
}

type pairState struct {
	need       *PairNeed
	locA, locB int
	colA, colB int
	objCol     int
	flip       uint8 // 1 when the objective wants false

	// grid is the published result. The kernels tally cell<<1 | hit
	// into cells, where hit is the row's objective bit; its last two
	// slots form a trash cell for rows outside either bucketing, and
	// publish derives the grid's U and V from the rest. The axis
	// extreme arrays carry one trash slot each for the same reason.
	grid *region.Grid
	gu   []int
	gv   []float64
	cols int
	cells
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

// kernelKey is the context key under which this package's tests
// install the reference per-tuple kernel in place of the vectorized
// one (see export_test.go). Production contexts never carry it.
type kernelKey struct{}

// newExecState builds one worker's tally state. Its target sums are
// logged into sums, which must be non-nil when a group carries targets.
func newExecState(ctx context.Context, set *StatsSet, groups []*GroupNeed, pairs []*PairNeed,
	numPos, boolPos map[int]int, sums *sumLog) (*execState, error) {
	st := &execState{boolPos: boolPos}
	if sums != nil {
		st.clog = &chunkLog{l: sums}
	}
	st.kernel, _ = ctx.Value(kernelKey{}).(func(*execState, *relation.Batch))
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
	type runKey struct {
		n     int
		conds [laneBits]bucketing.BoolCond
	}
	codeOf := map[runKey]int{}
	code := func(conds []bucketing.BoolCond) int {
		key := runKey{n: len(conds)}
		copy(key.conds[:], conds)
		if i, ok := codeOf[key]; ok {
			return i
		}
		p := &codePass{}
		for k, bc := range conds {
			p.cols = append(p.cols, boolPos[bc.Attr])
			if !bc.Want {
				p.flip |= 1 << k
			}
		}
		i := len(st.codes)
		codeOf[key] = i
		st.codes = append(st.codes, p)
		return i
	}
	for _, g := range groups {
		loc, err := locate(g.boundKey())
		if err != nil {
			return nil, err
		}
		m := st.locB[loc].NumBuckets()
		mi := maskIdx(g.Filter, g.Key.Filter)
		gs := &groupState{
			need: g, col: numPos[g.Driver], loc: loc,
			maskIdx: mi, combo: combo(loc, mi, m), m: m,
		}
		for k := 0; k == 0 || k < len(g.Bools); k += laneBits {
			l := &lane{code: -1}
			if run := g.Bools[k:min(k+laneBits, len(g.Bools))]; len(run) > 0 {
				l.code, l.bits = code(run), uint(len(run))
			}
			l.n = make([]uint32, (m+1)<<l.bits)
			gs.lanes = append(gs.lanes, l)
		}
		for _, t := range g.Targets {
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
			objCol: boolPos[p.Obj.Attr],
			grid:   g, gu: gu, gv: gv, cols: colsN,
			cells: cells{n: make([]uint32, (rows*colsN+1)<<1)},
			minA:  make([]float64, rows+1), maxA: make([]float64, rows+1),
			minB: make([]float64, colsN+1), maxB: make([]float64, colsN+1),
		}
		if !p.Obj.Want {
			ps.flip = 1
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

// countBatch tallies one batch into every group and pair. When the
// batch could carry a 32-bit cell past math.MaxUint32, every cell
// first folds into its 64-bit totals. Bucket indices are then located
// once per (attribute, resolution) and row masks computed once per
// distinct filter, and the batch-vectorized kernel consumes them.
// Either kernel scatters every counted row into the same cells, so
// their outputs are bit-identical. A state with target sums then logs
// the batch's target values for the ordered replay (see sumLog), under
// either kernel.
//
// Filter columns are random Booleans, on which a per-row branch
// mispredicts about half the time, so masks are built branch-free: a
// filter's first condition assigns col[row] == want and each later one
// ANDs in through b2u. Masks stay []bool, which the reference kernel
// reads too.
func (st *execState) countBatch(b *relation.Batch) {
	n := b.Len
	if st.tallied+int64(n) > math.MaxUint32 {
		st.fold()
	}
	st.tallied += int64(n)
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
		for k, bc := range st.filters[f] {
			col := b.Bool[st.boolPos[bc.Attr]][:n]
			want := bc.Want
			if k == 0 {
				for row, x := range col {
					mask[row] = x == want
				}
				continue
			}
			for row, x := range col {
				mask[row] = b2u(mask[row])&b2u(x == want) != 0
			}
		}
	}
	if st.kernel != nil {
		st.kernel(st, b)
	} else {
		st.countBatchVec(b)
	}
	if st.clog != nil {
		st.clog.record(st, b)
	}
}

// countBatchVec is the batch-vectorized kernel. The per-tuple
// branching of the reference kernel — mask check, NaN check, extreme
// tracking, per-condition conditionals — is restructured into columnar
// passes: one effective-index pass per distinct (boundary set, filter)
// combination routes every excluded row to a trash bucket, one code
// pass per distinct condition run packs the row's condition bits into a
// byte, and each lane and extreme then runs one tight scatter loop over
// the whole batch with no row-level control flow. A row costs one
// scatter-add per lane, not one per condition plus one for its bucket.
// Trash-bucket garbage never surfaces: publish drops it.
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
			// Filtered rows are random Booleans, so pick by arithmetic:
			// keep is all ones for a masked-in row with a bucket, else
			// zero, and the row goes to its bucket or the trash slot.
			mask := st.masks[c.maskIdx][:n]
			for row, i := range idx {
				in := int32(b2u(mask[row]))
				nan := int32(uint32(i) >> 31) // 1 for a NaN driver (−1)
				nans += int(in & nan)
				keep := -(in &^ nan)
				eff[row] = trash ^ (i^trash)&keep
			}
		}
		c.nans = nans
	}
	for _, p := range st.codes {
		p.build(b)
	}
	for _, gs := range st.groups {
		c := st.combos[gs.combo]
		eff := c.eff[:n]
		gs.total += n
		gs.nans += c.nans
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
		for _, l := range gs.lanes {
			t := l.n
			if l.code < 0 {
				for _, e := range eff {
					t[e]++
				}
				continue
			}
			code := st.codes[l.code].code[:len(eff)]
			bits := l.bits & 63 // a masked shift compiles to one instruction
			for row, e := range eff {
				t[int(e)<<bits|int(code[row])]++
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
		trashCell := int32(len(ps.n)>>1 - 1)
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
		t := ps.n
		obj := b.Bool[ps.objCol][:len(effCell)]
		flip := ps.flip
		for row, e := range effCell {
			t[int(e)<<1|int(b2u(obj[row])^flip)]++
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

// build fills the pass's code byte for every row of b.
func (p *codePass) build(b *relation.Batch) {
	n := b.Len
	if cap(p.code) < n {
		p.code = make([]uint8, n)
	}
	code := p.code[:n]
	c0 := b.Bool[p.cols[0]][:n]
	switch len(p.cols) {
	case 1:
		for row, x := range c0 {
			code[row] = b2u(x) ^ p.flip
		}
	case 2:
		c1 := b.Bool[p.cols[1]][:n]
		for row, x := range c0 {
			code[row] = (b2u(x) | b2u(c1[row])<<1) ^ p.flip
		}
	default:
		c1 := b.Bool[p.cols[1]][:n]
		c2 := b.Bool[p.cols[2]][:n]
		for row, x := range c0 {
			code[row] = (b2u(x) | b2u(c1[row])<<1 | b2u(c2[row])<<2) ^ p.flip
		}
	}
}

// b2u is 1 for true and 0 for false; the compiler makes it branch-free.
func b2u(x bool) uint8 {
	var u uint8
	if x {
		u = 1
	}
	return u
}

// skip settles rows a filter provably rejects without a scan: they
// count toward every group's Total, the only statistic such a row
// touches.
func (st *execState) skip(rows int) {
	for _, gs := range st.groups {
		gs.total += rows
	}
}

// fold moves every 32-bit cell's count into its 64-bit totals.
func (st *execState) fold() {
	for _, gs := range st.groups {
		for _, l := range gs.lanes {
			l.fold()
		}
	}
	for _, ps := range st.pairs {
		ps.fold()
	}
	st.tallied = 0
}

// fold moves the 32-bit counts into the 64-bit totals.
func (c *cells) fold() {
	if c.wide == nil {
		c.wide = make([]int, len(c.n))
	}
	for i, x := range c.n {
		c.wide[i] += int(x)
	}
	clear(c.n)
}

// add folds o's counts into c. The caller keeps c's 32-bit cells from
// wrapping.
func (c *cells) add(o *cells) {
	for i, x := range o.n {
		c.n[i] += x
	}
	if o.wide != nil {
		if c.wide == nil {
			c.wide = make([]int, len(c.n))
		}
		for i, x := range o.wide {
			c.wide[i] += x
		}
	}
}

// at returns cell i's count.
func (c *cells) at(i int) int {
	x := int(c.n[i])
	if c.wide != nil {
		x += c.wide[i]
	}
	return x
}

// merge folds other's tallies into st, trash buckets included, first
// folding st's 32-bit cells when the two states' rows together could
// wrap one. Every statistic is an integer count or an extreme (tally
// states hold no float target sums — see sumLog), so the merged state
// matches a serial scan exactly regardless of segmentation.
func (st *execState) merge(other *execState) {
	if st.tallied+other.tallied > math.MaxUint32 {
		st.fold()
	}
	st.tallied += other.tallied
	for i, gs := range st.groups {
		og := other.groups[i]
		gs.total += og.total
		gs.nans += og.nans
		for k, l := range gs.lanes {
			l.add(&og.lanes[k].cells)
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
		ps.add(&op.cells)
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

// publish converts the final tally state and the replayed target sums
// into cached statistics. A group's U sums each bucket's cells of its
// first lane; V for condition k sums the cells of lane k/laneBits whose
// code has bit k%laneBits set. A grid cell's U sums its two objective
// cells and its V is the hit cell. Trash buckets are dropped, and the
// extreme arrays are sliced with full capacity caps so no later append
// can reach into them.
func (st *execState) publish(set *StatsSet, sums *sumLog) {
	for gi, gs := range st.groups {
		m := gs.m
		var minv, maxv []float64
		if gs.minv != nil {
			minv = gs.minv[:m:m]
			maxv = gs.maxv[:m:m]
		}
		counts := make([]int, m*(1+len(gs.need.Bools)))
		s := &Stats1D{
			M: m, Total: gs.total, NaNs: gs.nans,
			U:      counts[:m:m],
			MinVal: minv, MaxVal: maxv,
			V:      map[bucketing.BoolCond][]int{},
			Sum:    map[int][]float64{},
			filter: gs.need.Filter,
		}
		l := gs.lanes[0]
		for e := range s.U {
			for c := e << l.bits; c < (e+1)<<l.bits; c++ {
				s.U[e] += l.at(c)
			}
			s.N += s.U[e]
		}
		for k, bc := range gs.need.Bools {
			l, bit := gs.lanes[k/laneBits], k%laneBits
			v := counts[(k+1)*m : (k+2)*m : (k+2)*m]
			for e := range v {
				base := e << l.bits
				for code := 0; code < 1<<l.bits; code++ {
					if code>>bit&1 != 0 {
						v[e] += l.at(base | code)
					}
				}
			}
			s.V[bc] = v
		}
		for k, t := range gs.need.Targets {
			s.Sum[t] = sums.sums[gi][k][:m:m]
		}
		set.Groups[gs.need.Key] = s
	}
	for _, ps := range st.pairs {
		hits := 0
		for c := range ps.gu {
			miss, hit := ps.at(c<<1), ps.at(c<<1|1)
			ps.gu[c] = miss + hit
			ps.gv[c] = float64(hit)
			hits += hit
		}
		ra, ca := ps.grid.Rows(), ps.grid.Cols()
		set.Pairs[ps.need.Key] = &Stats2D{
			Grid: ps.grid,
			MinA: ps.minA[:ra:ra], MaxA: ps.maxA[:ra:ra],
			MinB: ps.minB[:ca:ca], MaxB: ps.maxB[:ca:ca],
			N:    ps.grid.Total(),
			Hits: hits,
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
