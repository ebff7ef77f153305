package plan

import (
	"context"
	"math"
	"runtime"
	"testing"

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
	if chunks := relation.PlanScanChunks(dr, 2, cols, nil); len(chunks) < 8 {
		t.Fatalf("planned %d chunks for 2 workers, want at least 8", len(chunks))
	}
	warm := NewCache(0)
	set, err := Run(dr, d, warm, req)
	if err != nil {
		t.Fatal(err)
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// pass counts the schedule against cached boundaries, so only the
	// counting scan runs; the least of three runs filters out noise.
	pass := func(pes int) uint64 {
		dd := d
		dd.PEs = pes
		least := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ {
			cache := NewCache(0)
			cache.CopyBoundsFrom(warm)
			least = min(least, allocated(func() {
				if _, err := Run(dr, dd, cache, req); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	pass(2) // fill the scan buffer pools for both workers
	serial, parallel := pass(1), pass(2)

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
		st, err := newExecState(context.Background(), set, groups, nil, numPos, boolPos)
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
