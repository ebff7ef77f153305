package plan

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// recoveryFixture builds a sharded bank relation (range-scannable, with
// per-shard block scans to end on a fault) plus the Defaults the
// recovery tests share.
func recoveryFixture(t *testing.T, n, shards int) (*relation.ShardedRelation, Defaults) {
	t.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rel.oprs")
	if err := datagen.WriteSharded(path, bank, n, 42, shards, 0); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	d := Defaults{
		MinSupport: 0.05, MinConfidence: 0.5,
		Buckets: 40, GridSide: 16, SampleFactor: 40, Seed: 1,
	}
	return sr, d
}

// recoveryQueries is a mixed schedule: every numeric driver's 1-D
// groups (with a Boolean filter variant), one 2-D pair grid and one
// average query's float target sums.
func recoveryQueries() []Query {
	return []Query{
		{Op: OpRules, Objective: "CardLoan", ObjectiveValue: true},
		{Op: OpRules, Numeric: "Balance", Objective: "Mortgage", ObjectiveValue: true,
			Conditions: []Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan", ObjectiveValue: true},
		{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
	}
}

// resolveAll resolves the queries fresh into one batch's requirements.
func resolveAll(t *testing.T, rel relation.Relation, d Defaults, queries []Query) *Requirements {
	t.Helper()
	req := NewRequirements()
	for _, q := range queries {
		r, err := Resolve(rel, d, q)
		if err != nil {
			t.Fatal(err)
		}
		req.Add(r)
	}
	return req
}

// runSchedule runs the queries through RunContext with the given
// Defaults and a cold cache.
func runSchedule(t *testing.T, rel relation.Relation, d Defaults, queries []Query) (*StatsSet, error) {
	t.Helper()
	return RunContext(context.Background(), rel, d, NewCache(0), resolveAll(t, rel, d, queries))
}

// hookRel wraps a relation and passes every counting chunk scan's
// callback through hook, which may slow or fail the scan of the chunk
// at start. Point reads pass through, so sampling is untouched. It
// prices no atoms (nil ScanCosts), so chunks are plain equal-row
// segments.
type hookRel struct {
	relation.Relation
	hook func(start int, fn func(*relation.Batch) error) func(*relation.Batch) error
}

func (h hookRel) ScanRangePruned(start, end int, cols relation.ColumnSet, pred *relation.Predicate,
	skip func(int) error, fn func(*relation.Batch) error) error {
	return h.Relation.ScanRangePruned(start, end, cols, pred, skip, h.hook(start, fn))
}

func (h hookRel) ScanCosts(relation.ColumnSet, *relation.Predicate) ([]int, []int64) { return nil, nil }

// failAfter wraps fn to fail with an injected fault naming start once
// rows rows are delivered.
func failAfter(start, rows int, fn func(*relation.Batch) error) func(*relation.Batch) error {
	return relation.NewFaultScanner(&relation.FaultConfig{FailAfterRows: rows}, int64(start), true).Wrap(fn)
}

// TestRecoveryHealthyMatchesSerial pins that a retry policy changes
// nothing on healthy storage: at every worker count the statistics are
// field-for-field those of one serial scan, nothing is retried, and
// PEs 1 still issues exactly one scan.
func TestRecoveryHealthyMatchesSerial(t *testing.T) {
	rel, d := recoveryFixture(t, 6000, 4)
	d.PEs = 1
	want, err := runSchedule(t, rel, d, recoveryQueries())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) == 0 || len(want.Pairs) == 0 {
		t.Fatal("degenerate schedule: no groups or pairs materialized")
	}
	for _, pes := range []int{1, 2, 4, 8} {
		var stats ScatterStats
		ds := d
		ds.PEs = pes
		ds.Scatter = ScatterConfig{MaxAttempts: 3, TaskTimeout: time.Minute, Stats: &stats}
		frel := relation.NewFaultRelation(rel, relation.FaultConfig{})
		got, err := runSchedule(t, frel, ds, recoveryQueries())
		if err != nil {
			t.Fatalf("pes=%d: %v", pes, err)
		}
		if pes == 1 && frel.Scans() != 1 {
			t.Errorf("pes=1: %d scans, want exactly one", frel.Scans())
		}
		if stats.Retries.Load() != 0 || stats.Timeouts.Load() != 0 {
			t.Errorf("pes=%d: healthy run retried %d, timed out %d", pes, stats.Retries.Load(), stats.Timeouts.Load())
		}
		compareStatsSets(t, want, got)
	}
}

// TestRecoveryRetriesTransientFailures pins the retry path: three
// counting scans die mid-chunk, each failed chunk is retried once, and
// the merged statistics, average sums included, are still exact.
func TestRecoveryRetriesTransientFailures(t *testing.T) {
	rel, d := recoveryFixture(t, 6000, 4)
	want, err := runSchedule(t, rel, d, recoveryQueries())
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range []int{1, 3} {
		var stats ScatterStats
		ds := d
		ds.PEs = pes
		ds.Scatter = ScatterConfig{MaxAttempts: 4, Stats: &stats}
		frel := relation.NewFaultRelation(rel, relation.FaultConfig{FailScans: []int{1, 2, 3}, FailAfterRows: 700})
		got, err := runSchedule(t, frel, ds, recoveryQueries())
		if err != nil {
			t.Fatalf("pes=%d: %v", pes, err)
		}
		if frel.Injected() != 3 || stats.Retries.Load() != 3 {
			t.Errorf("pes=%d: %d faults injected, %d retries; want 3 and 3", pes, frel.Injected(), stats.Retries.Load())
		}
		compareStatsSets(t, want, got)
	}
}

// TestRecoveryTimeoutRetriesStalledScan pins the per-attempt deadline:
// a scan stalled past TaskTimeout is cut at its next batch and retried,
// and the statistics are still exact.
func TestRecoveryTimeoutRetriesStalledScan(t *testing.T) {
	rel, d := recoveryFixture(t, 6000, 4)
	want, err := runSchedule(t, rel, d, recoveryQueries())
	if err != nil {
		t.Fatal(err)
	}
	var stats ScatterStats
	ds := d
	ds.PEs = 2
	ds.Scatter = ScatterConfig{TaskTimeout: 50 * time.Millisecond, MaxAttempts: 3, Stats: &stats}
	frel := relation.NewFaultRelation(rel, relation.FaultConfig{
		FailScans: []int{1}, StallOnly: true, Stall: 200 * time.Millisecond})
	got, err := runSchedule(t, frel, ds, recoveryQueries())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timeouts.Load() == 0 || stats.Retries.Load() == 0 {
		t.Errorf("stalled scan: %d timeouts, %d retries; want both", stats.Timeouts.Load(), stats.Retries.Load())
	}
	compareStatsSets(t, want, got)
}

// TestRecoveryExhaustionSurfacesStorageError pins the terminal path:
// when every attempt of a chunk hits a storage failure, one clean error
// surfaces, carrying the injected fault's identity.
func TestRecoveryExhaustionSurfacesStorageError(t *testing.T) {
	rel, d := recoveryFixture(t, 4000, 3)
	for _, pes := range []int{1, 2} {
		var stats ScatterStats
		ds := d
		ds.PEs = pes
		ds.Scatter = ScatterConfig{MaxAttempts: 2, Stats: &stats}
		frel := relation.NewFaultRelation(rel, relation.FaultConfig{FailEvery: 1, FailAfterRows: 500})
		_, err := runSchedule(t, frel, ds, recoveryQueries())
		if err == nil {
			t.Fatalf("pes=%d: exhausted retries returned success", pes)
		}
		if !errors.Is(err, relation.ErrInjected) {
			t.Fatalf("pes=%d: storage error identity lost: %v", pes, err)
		}
		if stats.Retries.Load() == 0 {
			t.Errorf("pes=%d: no attempt was retried before the chunk failed", pes)
		}
	}
}

// TestRecoveryFirstErrorInChunkOrder pins the zero policy: each chunk
// is counted once, and with several chunks failing the scan reports the
// first failure in chunk order, whatever order the pool met them in.
func TestRecoveryFirstErrorInChunkOrder(t *testing.T) {
	rel, d := recoveryFixture(t, 6000, 4)
	hr := hookRel{Relation: rel, hook: func(start int, fn func(*relation.Batch) error) func(*relation.Batch) error {
		if start == 0 {
			return fn
		}
		return failAfter(start, 100, fn)
	}}
	d.PEs = 4
	chunks := relation.PlanScanChunks(hr, d.PEs, relation.ColumnSet{}, nil)
	if len(chunks) < 3 {
		t.Fatalf("planned %d chunks, want at least 3 so two fail", len(chunks))
	}
	_, err := runSchedule(t, hr, d, recoveryQueries())
	if !errors.Is(err, relation.ErrInjected) {
		t.Fatalf("failing chunks returned %v, want the injected fault", err)
	}
	if want := fmt.Sprintf("scan %d failed", chunks[1].Start); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the first failing chunk (%q)", err, want)
	}
}

// TestRecoveryCancellation pins context plumbing: cancelling the batch
// mid-scan aborts the run with the context's error, promptly.
func TestRecoveryCancellation(t *testing.T) {
	rel, d := recoveryFixture(t, 6000, 4)
	d.PEs = 2
	slow := hookRel{
		Relation: relation.NewFaultRelation(rel, relation.FaultConfig{ShortBatches: 20}),
		hook: func(_ int, fn func(*relation.Batch) error) func(*relation.Batch) error {
			return func(b *relation.Batch) error {
				time.Sleep(time.Millisecond)
				return fn(b)
			}
		},
	}
	req := resolveAll(t, slow, d, recoveryQueries())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, slow, d, NewCache(0), req)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// TestRecoveryCancellationDuringBackoff pins that a retry backoff never
// outlives the batch: with every scan failing, once the backoff has
// reached its 250 ms cap, cancelling the context must end the run
// promptly, not after the sleep.
func TestRecoveryCancellationDuringBackoff(t *testing.T) {
	rel, d := recoveryFixture(t, 6000, 4)
	d.PEs = 1
	var stats ScatterStats
	d.Scatter = ScatterConfig{MaxAttempts: 1000, Stats: &stats}
	frel := relation.NewFaultRelation(rel, relation.FaultConfig{FailEvery: 1})
	req := resolveAll(t, frel, d, recoveryQueries())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, frel, d, NewCache(0), req)
		done <- err
	}()
	const capped = 8 // the retry after the 8th failure waits the full cap
	if backoff(capped) != maxRetryBackoff {
		t.Fatalf("backoff(%d) = %v, want the cap %v", capped, backoff(capped), maxRetryBackoff)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stats.Retries.Load() < capped {
		if time.Now().After(deadline) {
			t.Fatalf("only %d retries in 5 s", stats.Retries.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
		if waited := time.Since(cancelled); waited > 150*time.Millisecond {
			t.Fatalf("cancelled run returned %v after cancel: the backoff sleep held it", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// TestRecoveryResumesTargetSumLog pins the resume rule on the
// order-sensitive sum fixture: at PEs 2 the head chunk's first scan
// fails after 10000 rows, past its first 8192-row log segment, which
// the head replays as soon as it closes. The retry must log only the
// rows after that segment, so the sums equal the healthy serial run's
// bit for bit; re-logging the chunk from its first row would add the
// replayed segment twice.
func TestRecoveryResumesTargetSumLog(t *testing.T) {
	const n, failRow = 30000, 10000
	if failRow <= relation.DefaultBatchSize {
		t.Fatal("the fault must land past the head's first log segment")
	}
	queries := []Query{
		{Op: OpAverage, Numeric: "X", Target: "T", MinSupport: 0.1},
		{Op: OpAverage, Numeric: "Y", Target: "U", MinSupport: 0.1},
		{Op: OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true},
	}
	d := Defaults{Buckets: 5, GridSide: 4, SampleFactor: 40, Seed: 3}
	for _, r := range sumRelations(t, n) {
		t.Run(r.name, func(t *testing.T) {
			serial := d
			serial.PEs = 1
			want, err := runSchedule(t, r.rel, serial, queries)
			if err != nil {
				t.Fatal(err)
			}
			failed := false
			hr := hookRel{Relation: r.rel, hook: func(start int, fn func(*relation.Batch) error) func(*relation.Batch) error {
				if start != 0 || failed {
					return fn
				}
				failed = true // only the head chunk's slot scans start 0
				return failAfter(start, failRow, fn)
			}}
			var stats ScatterStats
			ds := d
			ds.PEs = 2
			ds.Scatter = ScatterConfig{MaxAttempts: 2, Stats: &stats}
			if chunks := relation.PlanScanChunks(hr, ds.PEs, relation.ColumnSet{}, nil); chunks[0].End <= failRow {
				t.Fatalf("head chunk %+v ends before the fault row", chunks[0])
			}
			got, err := runSchedule(t, hr, ds, queries)
			if err != nil {
				t.Fatal(err)
			}
			if !failed || stats.Retries.Load() != 1 {
				t.Fatalf("head fault injected=%v, %d retries; want one retried fault", failed, stats.Retries.Load())
			}
			compareStatsSets(t, want, got)
		})
	}
}
