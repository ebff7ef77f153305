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
	"optrule/internal/freelist"
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
	defer func() {
		for _, st := range slots {
			if st != nil {
				st.release()
			}
		}
	}()
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
				if st != nil {
					st.release()
				}
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
// masks and per-condition-block row codes are computed once per batch.
// Then each group, and each pair, counts the batch in one branch-free
// row loop per shape. Everywhere in the kernel, bucket index −1 is the
// trash bucket: a locate pass's NaN rows, a filter's masked-out rows
// and a pair's rows outside either bucketing all land there, so no row
// loop tests a row, and publish drops the trash. Counts live in
// integer cells and are derived into U, V and N only when the scan
// publishes; float target sums go through the ordered replay (see
// sumLog). A worker's cells, extremes and row scratch live in one
// arena that outlives the scan (see arena).

// effCombo is one distinct (boundary set, filter) combination's
// effective-index pass: eff[row] is the row's bucket index, or −1 when
// the filter masks the row out or its driver is NaN. nans counts the
// batch's masked-in NaN-driver rows. Unfiltered groups count straight
// from their locate pass.
type effCombo struct {
	loc     int // locate task index
	maskIdx int // distinct filter index

	eff  []int32
	nans int
}

// laneBits is how many Boolean conditions one lane packs into a row
// code at most: a lane over b conditions has 1<<b cells in each
// bucket's record, a full lane laneCells.
const (
	laneBits  = 3
	laneCells = 1 << laneBits
)

// blockLanes is how many lanes one row loop counts: a group with more
// lanes runs one loop per block of blockLanes. A loop views a record's
// block as an array of blockCells cells, the power of two at or above
// its lanes' cells, so masking a lane's cell index bounds it; recPad cells
// follow a group's last record to keep that view inside the cells.
const (
	blockLanes = 3
	blockCells = 4 * laneCells
	recPad     = blockCells
)

// codePass is one distinct block of up to blockLanes*laneBits (Bool
// column, want) conditions. Byte j of code[row] is the cell, within
// the block of a record, that the row's lane j counts in: j*laneCells
// plus the lane's code, whose bit k is set when the row meets the
// lane's condition k. Every group block over the same conditions
// shares the pass.
type codePass struct {
	cols []int  // Bool column position per condition
	mix  uint32 // XORed into every word: each lane's offset and wants-false bits
	code []uint32
}

// cells is a scatter table of 32-bit counts. Before a count could wrap,
// fold adds the counts into 64-bit totals, allocated on first use.
type cells struct {
	n    []uint32
	wide []int
}

// arena is one tally state's memory: every group's and pair's cells
// and extremes, and the per-batch row scratch. A state takes its arena
// from arenas and hands it back once its counts are published, so a
// batch allocates no tally memory when a worker's arena from an
// earlier batch is free.
type arena struct {
	cells []uint32
	ext   [][2]float64
	rows  []int32  // located and effective bucket indices
	codes []uint32 // code passes' row codes
}

// arenas keeps released arenas through collections, one per
// GOMAXPROCS: the same bounded free list as the block scans' buffers
// and the region DPs' slabs. An arena holding more than
// freelist.MaxBytes is not kept.
var arenas freelist.List[*arena]

// bytes returns the memory ar holds.
func (ar *arena) bytes() int {
	return 4*cap(ar.cells) + 16*cap(ar.ext) + 4*cap(ar.rows) + 4*cap(ar.codes)
}

// fit returns s cut to n elements, on a new array only when s's is
// too short; the contents are stale.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	codes  []*codePass // distinct condition blocks

	// ar backs the state's cells, extremes, idx, effective indices and
	// codes; rowCap is the batch length its row scratch is cut for.
	ar     *arena
	rowCap int

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

// groupState tallies one group in bucket-major records: bucket e's
// record is cells [(e+1)*stride, (e+2)*stride), the trash bucket's the
// first, where stride sums 1<<bits over the group's lanes, so one
// row's scatter-adds all land in one record. Each lane covers a run of
// up to laneBits of need.Bools, in order, at offset off of the record:
// cell off+code counts the bucket's rows whose conditions match code
// (bit k for the run's condition k). Only a group's last lane may be
// partial, so lane j sits at j*laneCells. A group without Bools keeps
// one zero-bit lane, its bucket counts. An unfiltered group's trash
// record counts its NaN drivers.
type groupState struct {
	need   *GroupNeed
	col    int // driver column position
	loc    int // locate task index
	combo  int // effective-index pass, -1 when unfiltered
	m      int
	stride int // cells per record

	total, nans int // nans: NaN drivers counted by effective-index passes
	lanes       []lane
	blocks      []int // code pass per block of blockLanes lanes, -1 for the zero-bit lane
	cells
	ext       [][2]float64 // bucket e's least and greatest driver value at e+1; nil unless keepsExtremes
	targetCol []int
}

// lane is one group's run of conditions within its records.
type lane struct {
	bits uint
	off  int // first cell within a record
}

type pairState struct {
	need       *PairNeed
	locA, locB int
	colA, colB int
	objCol     int
	flip       uint8 // 1 when the objective wants false

	// grid is the published result. The kernels tally cell<<1 | hit
	// into cells, where hit is the row's objective bit and the cells
	// form a (rows+1)×(cols+1) grid whose first row and column are the
	// axes' trash buckets; publish derives the grid's U and V from the
	// rest. extA and extB hold each axis bucket's extremes, laid out
	// like a group's.
	grid *region.Grid
	gu   []int
	gv   []float64
	cols int
	cells
	extA, extB [][2]float64
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

// newExecState builds one worker's tally state on an arena from
// arenas. Its target sums are logged into sums, which must be non-nil
// when a group carries targets.
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
	combo := func(loc, mi int) int {
		key := [2]int{loc, mi}
		if i, ok := comboOf[key]; ok {
			return i
		}
		i := len(st.combos)
		comboOf[key] = i
		st.combos = append(st.combos, &effCombo{loc: loc, maskIdx: mi})
		return i
	}
	type blockKey struct {
		n     int
		conds [blockLanes * laneBits]bucketing.BoolCond
	}
	codeOf := map[blockKey]int{}
	code := func(conds []bucketing.BoolCond) int {
		key := blockKey{n: len(conds)}
		copy(key.conds[:], conds)
		if i, ok := codeOf[key]; ok {
			return i
		}
		p := &codePass{}
		for k, bc := range conds {
			p.cols = append(p.cols, boolPos[bc.Attr])
			j := k / laneBits
			if k%laneBits == 0 {
				p.mix |= uint32(j*laneCells) << (8 * j)
			}
			if !bc.Want {
				p.mix |= 1 << (8*j + k%laneBits)
			}
		}
		i := len(st.codes)
		codeOf[key] = i
		st.codes = append(st.codes, p)
		return i
	}
	// Lay the state out, then cut its cells and extremes from the arena.
	var nCells, nExt int
	for _, g := range groups {
		loc, err := locate(g.boundKey())
		if err != nil {
			return nil, err
		}
		m := st.locB[loc].NumBuckets()
		mi := maskIdx(g.Filter, g.Key.Filter)
		gs := &groupState{need: g, col: numPos[g.Driver], loc: loc, combo: -1, m: m}
		if mi >= 0 {
			gs.combo = combo(loc, mi)
		}
		for k := 0; k == 0 || k < len(g.Bools); k += laneBits {
			bits := min(laneBits, len(g.Bools)-k)
			gs.lanes = append(gs.lanes, lane{bits: uint(bits), off: gs.stride})
			gs.stride += 1 << bits
		}
		for k := 0; k == 0 || k < len(g.Bools); k += blockLanes * laneBits {
			p := -1
			if run := g.Bools[k:min(k+blockLanes*laneBits, len(g.Bools))]; len(run) > 0 {
				p = code(run)
			}
			gs.blocks = append(gs.blocks, p)
		}
		for _, t := range g.Targets {
			gs.targetCol = append(gs.targetCol, numPos[t])
		}
		nCells += (m+1)*gs.stride + recPad
		if keepsExtremes(g) {
			nExt += m + 1
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
		}
		if !p.Obj.Want {
			ps.flip = 1
		}
		nCells += (rows + 1) * (colsN + 1) << 1
		nExt += rows + 1 + colsN + 1
		st.pairs = append(st.pairs, ps)
	}
	ar, ok := arenas.Get()
	if !ok {
		ar = &arena{}
	}
	st.ar = ar
	ar.cells = fit(ar.cells, nCells)
	clear(ar.cells)
	ar.ext = fit(ar.ext, nExt)
	freeCells, freeExt := ar.cells, ar.ext
	cut := func(n int) []uint32 {
		c := freeCells[:n:n]
		freeCells = freeCells[n:]
		return c
	}
	ext := func(buckets int) [][2]float64 {
		x := freeExt[: buckets+1 : buckets+1]
		freeExt = freeExt[len(x):]
		for e := range x {
			x[e] = [2]float64{math.Inf(1), math.Inf(-1)}
		}
		return x
	}
	for _, gs := range st.groups {
		gs.n = cut((gs.m+1)*gs.stride + recPad)
		if keepsExtremes(gs.need) {
			gs.ext = ext(gs.m)
		}
	}
	for _, ps := range st.pairs {
		ps.n = cut((ps.grid.Rows() + 1) * (ps.cols + 1) << 1)
		ps.extA = ext(ps.grid.Rows())
		ps.extB = ext(ps.cols)
	}
	return st, nil
}

// keepsExtremes reports whether g's tally state folds its buckets'
// extremes: when g tracks them, and when g has conditions. Every group
// the resolver or a delta refresh gives conditions also tracks
// extremes, so each row loop over condition codes folds extremes and
// none needs a twin that does not.
func keepsExtremes(g *GroupNeed) bool {
	return g.TrackExtremes || len(g.Bools) > 0
}

// release hands st's arena back to arenas. Nothing may read st's
// cells, extremes or row scratch afterwards.
func (st *execState) release() {
	if st.ar != nil {
		arenas.Put(st.ar, st.ar.bytes())
	}
	st.ar = nil
}

// fitRows cuts the state's row scratch (located and effective indices,
// row codes) from its arena for batches of up to n rows.
func (st *execState) fitRows(n int) {
	if n <= st.rowCap {
		return
	}
	st.rowCap = n
	ar := st.ar
	ar.rows = fit(ar.rows, (len(st.idx)+len(st.combos))*n)
	ar.codes = fit(ar.codes, len(st.codes)*n)
	rows := func(k int) []int32 { return ar.rows[k*n : (k+1)*n : (k+1)*n] }
	for t := range st.idx {
		st.idx[t] = rows(t)
	}
	for c, cb := range st.combos {
		cb.eff = rows(len(st.idx) + c)
	}
	for p, cp := range st.codes {
		cp.code = ar.codes[p*n : (p+1)*n : (p+1)*n]
	}
}

// buckets returns the per-row bucket indices gs counts a batch of n
// rows from: its effective-index pass when it is filtered, else its
// locate pass, with −1 for a row counted into no bucket.
func (st *execState) buckets(gs *groupState, n int) []int32 {
	if gs.combo >= 0 {
		return st.combos[gs.combo].eff[:n]
	}
	return st.idx[gs.loc][:n]
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
	st.fitRows(n)
	// Bucket indices once per (attribute, resolution): every group and
	// pair sharing the boundary set shares the locate pass.
	for t := range st.locKeys {
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
// branching of the reference kernel (mask check, NaN check, extreme
// tracking, per-condition conditionals) becomes columnar passes and
// branch-free row loops. One effective-index pass per distinct
// (boundary set, filter) combination sends masked-out rows to the
// trash bucket, and one code pass per distinct condition block packs a
// row's condition bits into one word. Then each group counts the batch
// in one row loop per block of up to blockLanes lanes, over its
// effective-index pass or straight over its locate pass: a row costs
// one scatter-add per lane, all into its bucket's record, and each
// block of a group that keeps extremes also folds the row into its
// bucket's extremes. Each pair
// counts in one loop that scatters the row into its cell and updates
// both axes' extremes.
func (st *execState) countBatchVec(b *relation.Batch) {
	n := b.Len
	for _, c := range st.combos {
		c.nans = effPass(c.eff[:n], st.idx[c.loc][:n], st.masks[c.maskIdx])
	}
	for _, p := range st.codes {
		p.build(b)
	}
	for _, gs := range st.groups {
		if gs.combo >= 0 {
			gs.nans += st.combos[gs.combo].nans
		}
		gs.total += n
		gs.count(b, st.buckets(gs, n), st.codes)
	}
	for _, ps := range st.pairs {
		countPair(ps.n, st.idx[ps.locA][:n], st.idx[ps.locB][:n], ps.cols,
			b.Bool[ps.objCol], ps.flip, b.Numeric[ps.colA], b.Numeric[ps.colB], ps.extA, ps.extB)
	}
}

// effPass fills an effective-index pass: eff[row] is idx[row] for a
// row mask keeps and −1 for one it drops. It returns the kept rows'
// NaN drivers. Filtered rows are random Booleans, so it picks by
// arithmetic instead of branching.
func effPass(eff, idx []int32, mask []bool) (nans int) {
	eff, mask = eff[:len(idx)], mask[:len(idx)]
	for row, i := range idx {
		in := int32(b2u(mask[row]))
		nans += int(in & int32(uint32(i)>>31))
		eff[row] = i | (in - 1)
	}
	return nans
}

// count runs the group's row loops over one batch whose rows' buckets
// are idx: one loop per block of blockLanes lanes, each of which also
// folds the rows into their buckets' extremes (see keepsExtremes). A
// group with more than one block folds each row once per block, which
// leaves the same extremes as once.
func (gs *groupState) count(b *relation.Batch, idx []int32, codes []*codePass) {
	if gs.ext == nil {
		count0(gs.n, idx)
		return
	}
	x := b.Numeric[gs.col]
	for k, p := range gs.blocks {
		if p < 0 {
			count0x(gs.n, idx, x, gs.ext)
			continue
		}
		lanes := gs.lanes[k*blockLanes : min((k+1)*blockLanes, len(gs.lanes))]
		rec, code := gs.n[lanes[0].off:], codes[p].code
		switch len(lanes) {
		case 1:
			count1x(rec, gs.stride, idx, code, x, gs.ext)
		case 2:
			count2x(rec, gs.stride, idx, code, x, gs.ext)
		default:
			count3x(rec, gs.stride, idx, code, x, gs.ext)
		}
	}
}

// The per-shape row loops. Each counts one batch for one block of a
// group's lanes: idx holds each row's bucket (−1 for the trash
// bucket), rec the group's records from the block's first lane on,
// stride cells apart and the trash bucket's first, and code each row's
// cells within the block, one byte per lane (see codePass). count0
// counts a zero-bit lane, whose record is its bucket's one cell. The x
// loops also fold each row's driver value x into its bucket's extremes
// ext; only a group without conditions or extremes runs count0. Each
// loop takes its slices as parameters, so its
// values stay in registers, and views a row's block of its record as
// one array, so the lanes' scatter-adds share one bounds check.

func count0(rec []uint32, idx []int32) {
	for _, i := range idx {
		rec[i+1]++
	}
}

func count0x(rec []uint32, idx []int32, x []float64, ext [][2]float64) {
	x = x[:len(idx)]
	for row, i := range idx {
		rec[i+1]++
		extend(ext, i, x[row])
	}
}

func count1x(rec []uint32, stride int, idx []int32, code []uint32, x []float64, ext [][2]float64) {
	code, x = code[:len(idx)], x[:len(idx)]
	for row, i := range idx {
		j := (int(i) + 1) * stride
		r := (*[laneCells]uint32)(rec[j : j+laneCells : j+laneCells])
		r[code[row]&(laneCells-1)]++
		extend(ext, i, x[row])
	}
}

func count2x(rec []uint32, stride int, idx []int32, code []uint32, x []float64, ext [][2]float64) {
	code, x = code[:len(idx)], x[:len(idx)]
	for row, i := range idx {
		j := (int(i) + 1) * stride
		r := (*[2 * laneCells]uint32)(rec[j : j+2*laneCells : j+2*laneCells])
		c := code[row]
		r[c&(2*laneCells-1)]++
		r[c>>8&(2*laneCells-1)]++
		extend(ext, i, x[row])
	}
}

func count3x(rec []uint32, stride int, idx []int32, code []uint32, x []float64, ext [][2]float64) {
	code, x = code[:len(idx)], x[:len(idx)]
	for row, i := range idx {
		j := (int(i) + 1) * stride
		r := (*[blockCells]uint32)(rec[j : j+blockCells : j+blockCells])
		c := code[row]
		r[c&(blockCells-1)]++
		r[c>>8&(blockCells-1)]++
		r[c>>16&(blockCells-1)]++
		extend(ext, i, x[row])
	}
}

// extend folds v into bucket i's extremes, ext[i+1] (the trash
// bucket's first): its least and its greatest value. A NaN changes
// neither.
func extend(ext [][2]float64, i int32, v float64) {
	mm := &ext[i+1]
	if v < mm[0] {
		mm[0] = v
	}
	if v > mm[1] {
		mm[1] = v
	}
}

// countPair counts one batch into a pair's grid cells t and both axes'
// extremes extA and extB: ia and ib hold each row's bucket on either
// axis (−1 for NaN), cols the grid's column count, obj the objective
// column and flip 1 when the objective wants false. A row outside
// either axis's bucketing lands in the trash row or column of t and in
// both axes' trash buckets, so it touches no real cell or extreme.
func countPair(t []uint32, ia, ib []int32, cols int, obj []bool, flip uint8, a, b []float64, extA, extB [][2]float64) {
	ib, obj, a, b = ib[:len(ia)], obj[:len(ia)], a[:len(ia)], b[:len(ia)]
	for row, ri := range ia {
		rj := ib[row]
		t[((int(ri)+1)*(cols+1)+int(rj)+1)<<1|int(b2u(obj[row])^flip)]++
		// −1 on either axis is all ones, which the OR spreads to both.
		extend(extA, ri|rj>>31, a[row])
		extend(extB, rj|ri>>31, b[row])
	}
}

// build fills the pass's code word for every row of b, one lane's
// conditions at a time; the last lane's pass also applies mix.
func (p *codePass) build(b *relation.Batch) {
	n := b.Len
	code := p.code[:n]
	for k := 0; k < len(p.cols); k += laneBits {
		shift := uint(8 * (k / laneBits))
		keep := ^uint32(0) // the earlier lanes' bytes
		if k == 0 {
			keep = 0
		}
		var mix uint32
		if k+laneBits >= len(p.cols) {
			mix = p.mix
		}
		c0 := b.Bool[p.cols[k]][:n]
		switch min(laneBits, len(p.cols)-k) {
		case 1:
			for row, x := range c0 {
				code[row] = (code[row]&keep | uint32(b2u(x))<<shift) ^ mix
			}
		case 2:
			c1 := b.Bool[p.cols[k+1]][:n]
			for row, x := range c0 {
				code[row] = (code[row]&keep | uint32(b2u(x)|b2u(c1[row])<<1)<<shift) ^ mix
			}
		default:
			c1 := b.Bool[p.cols[k+1]][:n]
			c2 := b.Bool[p.cols[k+2]][:n]
			for row, x := range c0 {
				code[row] = (code[row]&keep | uint32(b2u(x)|b2u(c1[row])<<1|b2u(c2[row])<<2)<<shift) ^ mix
			}
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
		gs.fold()
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

// mergeExtremes folds o's extremes into ext.
func mergeExtremes(ext, o [][2]float64) {
	for e := range ext {
		if o[e][0] < ext[e][0] {
			ext[e][0] = o[e][0]
		}
		if o[e][1] > ext[e][1] {
			ext[e][1] = o[e][1]
		}
	}
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
		gs.add(&og.cells)
		mergeExtremes(gs.ext, og.ext)
	}
	for i, ps := range st.pairs {
		op := other.pairs[i]
		ps.add(&op.cells)
		mergeExtremes(ps.extA, op.extA)
		mergeExtremes(ps.extB, op.extB)
	}
}

// extremes copies the real buckets' least and greatest values out of
// ext into one new array, each slice capped so no later append reaches
// the other.
func extremes(ext [][2]float64) (lo, hi []float64) {
	m := len(ext) - 1
	out := make([]float64, 2*m)
	for e, mm := range ext[1:] {
		out[e], out[m+e] = mm[0], mm[1]
	}
	return out[:m:m], out[m:]
}

// publish converts the final tally state and the replayed target sums
// into cached statistics. A group's U sums each bucket's cells of its
// record's first lane; V for condition k sums the cells of lane
// k/laneBits whose code has bit k%laneBits set. An unfiltered group's
// NaN drivers are its trash record's first-lane cells. A grid cell's U
// sums its two objective cells and its V is the hit cell. Trash
// buckets are dropped, and the extremes are copied out of the arena,
// which the state's next owner overwrites.
func (st *execState) publish(set *StatsSet, sums *sumLog) {
	for gi, gs := range st.groups {
		m := gs.m
		var minv, maxv []float64
		if gs.need.TrackExtremes {
			minv, maxv = extremes(gs.ext)
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
		first := gs.lanes[0]
		for c := range 1 << first.bits {
			if gs.combo < 0 {
				s.NaNs += gs.at(c)
			}
			for e := range s.U {
				s.U[e] += gs.at((e+1)*gs.stride + c)
			}
		}
		for _, u := range s.U {
			s.N += u
		}
		for k, bc := range gs.need.Bools {
			l, bit := gs.lanes[k/laneBits], k%laneBits
			v := counts[(k+1)*m : (k+2)*m : (k+2)*m]
			for e := range v {
				base := (e+1)*gs.stride + l.off
				for code := range 1 << l.bits {
					if code>>bit&1 != 0 {
						v[e] += gs.at(base + code)
					}
				}
			}
			s.V[bc] = v
		}
		for k, t := range gs.need.Targets {
			s.Sum[t] = sums.sums[gi][k][1 : m+1 : m+1]
		}
		set.Groups[gs.need.Key] = s
	}
	for _, ps := range st.pairs {
		hits := 0
		cols := ps.grid.Cols()
		for c := range ps.gu {
			cell := (c/cols+1)*(cols+1) + c%cols + 1
			miss, hit := ps.at(cell<<1), ps.at(cell<<1|1)
			ps.gu[c] = miss + hit
			ps.gv[c] = float64(hit)
			hits += hit
		}
		s := &Stats2D{Grid: ps.grid, N: ps.grid.Total(), Hits: hits}
		s.MinA, s.MaxA = extremes(ps.extA)
		s.MinB, s.MaxB = extremes(ps.extB)
		set.Pairs[ps.need.Key] = s
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
