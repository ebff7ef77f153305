package plan

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"optrule/internal/relation"
)

// TestParallelTallyMemoryPerWorker pins that an in-process parallel
// counting pass keeps one tally state per worker, not per chunk: a
// PEs: 2 pass over a v2 relation planned into at least 8 chunks may
// allocate no more than the PEs: 1 pass plus one tally state and one
// decode batch. Keeping a state per chunk costs six more states here
// and fails the bound.
func TestParallelTallyMemoryPerWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	_, dr, _ := homRelations(t, 32000)
	schema := homSchema()
	d := Defaults{Buckets: 1000, SampleFactor: 40, Seed: 5}
	req := homRequirements(schema, d, 8, nil, nil)
	var groups []*GroupNeed
	for _, gk := range req.GroupOrder {
		groups = append(groups, req.Groups[gk])
	}
	cols, numPos, boolPos := execLayout(groups, nil)
	chunks := relation.PlanScanChunks(dr, 2, cols, nil)
	if len(chunks) < 8 {
		t.Fatalf("planned %d chunks for 2 workers, want at least 8", len(chunks))
	}
	warm := NewCache(0)
	set, err := Run(dr, d, warm, req)
	if err != nil {
		t.Fatal(err)
	}
	// The block-scan states and tally arenas sit on free lists that a
	// collection does not empty, so both passes run on filled lists
	// whenever the collector runs.
	pass(t, dr, d, warm, req, 2) // fill the scan state and arena lists for both workers
	serial, parallel := pass(t, dr, d, warm, req, 1), pass(t, dr, d, warm, req, 2)

	// One tally state, with the scratch its first batch allocates. The
	// fixture's 1000-row block groups cap every delivered batch at 1000
	// rows.
	const batchRows = 1000
	batch := &relation.Batch{Len: batchRows,
		Numeric: make([][]float64, len(cols.Numeric)), Bool: make([][]bool, len(cols.Bool))}
	for k := range batch.Numeric {
		batch.Numeric[k] = make([]float64, batchRows)
	}
	for k := range batch.Bool {
		batch.Bool[k] = make([]bool, batchRows)
	}
	state := allocated(func() {
		st, err := newExecState(context.Background(), set, groups, nil, numPos, boolPos, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.countBatch(batch)
	})
	batchBytes := uint64(relation.DefaultBatchSize * (8*len(cols.Numeric) + len(cols.Bool)))
	if parallel > serial+state+batchBytes {
		t.Fatalf("PEs 2 pass allocated %d B, more than the PEs 1 pass (%d B) plus one tally state (%d B) and one batch (%d B)",
			parallel, serial, state, batchBytes)
	}
	t.Logf("PEs 1: %d B, PEs 2: %d B, tally state %d B, batch %d B", serial, parallel, state, batchBytes)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// pass returns the bytes a counting pass of req at pes workers
// allocates against warm's cached boundaries, so only the counting scan
// runs; the least of three runs filters out noise.
func pass(t *testing.T, rel relation.Relation, d Defaults, warm *LRUCache, req *Requirements, pes int) uint64 {
	t.Helper()
	d.PEs = pes
	least := uint64(math.MaxUint64)
	for rep := 0; rep < 3; rep++ {
		cache := NewCache(0)
		cache.CopyBoundsFrom(warm)
		least = min(least, allocated(func() {
			if _, err := Run(rel, d, cache, req); err != nil {
				t.Fatal(err)
			}
		}))
	}
	return least
}

// stalledHead delays the scan of the first chunk of each parallel pass
// until the last chunk's scan has started, or for stall at most, so
// every other chunk runs ahead of the head.
type stalledHead struct {
	relation.Relation
	stall time.Duration

	mu      sync.Mutex
	tailRun chan struct{} // closed when the last chunk's scan starts
	stalls  int           // head chunk scans that were held back
}

func (r *stalledHead) ScanRangePruned(start, end int, cols relation.ColumnSet, pred *relation.Predicate,
	skip func(int) error, fn func(*relation.Batch) error) error {
	r.mu.Lock()
	switch {
	case end == r.NumTuples():
		if r.tailRun != nil {
			close(r.tailRun)
			r.tailRun = nil
		}
		r.mu.Unlock()
	case start == 0:
		tail := make(chan struct{})
		r.tailRun = tail
		r.stalls++
		r.mu.Unlock()
		select {
		case <-tail:
		case <-time.After(r.stall):
		}
	default:
		r.mu.Unlock()
	}
	return r.Relation.ScanRangePruned(start, end, cols, pred, skip, fn)
}

// TestParallelTargetSumMemory bounds an average-carrying scan at PEs 2
// whose head chunk stalls: the pass may allocate no more than the PEs 1
// pass plus one tally state, one batch and the sum log's bound — one
// open segment per worker plus the backpressure limit — which does not
// grow with the relation. Logging every chunk that runs ahead of the
// stalled head would exceed that bound twice over on this relation.
func TestParallelTargetSumMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	const n = 700_000
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
	}
	mem := relation.MustNewMemoryRelation(schema)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		mem.MustAppend([]float64{rng.Float64() * 100, rng.NormFloat64()}, nil)
	}
	d := Defaults{Buckets: 100, GridSide: 4, SampleFactor: 40, Seed: 5}
	req := NewRequirements()
	r, err := Resolve(mem, d, Query{Op: OpAverage, Numeric: "X", Target: "T", MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	req.Add(r)
	warm := NewCache(0)
	set, err := Run(mem, d, warm, req)
	if err != nil {
		t.Fatal(err)
	}
	var groups []*GroupNeed
	for _, gk := range req.GroupOrder {
		groups = append(groups, req.Groups[gk])
	}
	_, numPos, boolPos := execLayout(groups, nil)

	const pes = 2
	segBytes := uint64(relation.DefaultBatchSize * (4 + 8)) // one logged target
	logBound := segBytes * pes * (1 + sumPendingPerWorker)
	if ahead := uint64(n-sumChunkRows) * (4 + 8); ahead < 2*logBound {
		t.Fatalf("logging the %d rows ahead of the head costs %d B, under twice the log bound %d B; grow the relation",
			n-sumChunkRows, ahead, logBound)
	}
	stalled := &stalledHead{Relation: mem, stall: 200 * time.Millisecond}
	serial := pass(t, stalled, d, warm, req, 1)
	if stalled.stalls != 0 {
		t.Fatalf("the serial pass stalled %d times; its one chunk is the whole relation", stalled.stalls)
	}
	parallel := pass(t, stalled, d, warm, req, pes)
	if stalled.stalls != 3 {
		t.Fatalf("the head chunk stalled in %d of the 3 parallel passes", stalled.stalls)
	}
	state := allocated(func() {
		if _, err := newExecState(context.Background(), set, groups, nil, numPos, boolPos, nil); err != nil {
			t.Fatal(err)
		}
	})
	batchBytes := uint64(relation.DefaultBatchSize * 8 * len(schema))
	if parallel > serial+state+batchBytes+logBound {
		t.Fatalf("PEs %d pass allocated %d B, more than the PEs 1 pass (%d B) plus one tally state (%d B), one batch (%d B) and the sum log bound (%d B)",
			pes, parallel, serial, state, batchBytes, logBound)
	}
	t.Logf("PEs 1: %d B, PEs %d: %d B, tally state %d B, batch %d B, sum log bound %d B",
		serial, pes, parallel, state, batchBytes, logBound)
}
