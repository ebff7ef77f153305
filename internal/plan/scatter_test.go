package plan

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// scatterFixture builds a sharded bank relation (range-scannable, with
// real shard boundaries for the scatter cuts) plus the Defaults the
// scatter tests share.
func scatterFixture(t *testing.T, n, shards int) (*relation.ShardedRelation, Defaults) {
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

// scatterQueries is a mixed schedule: every numeric driver's 1-D
// groups (with a Boolean filter variant) plus one 2-D pair grid.
func scatterQueries() []Query {
	return []Query{
		{Op: OpRules, Objective: "CardLoan", ObjectiveValue: true},
		{Op: OpRules, Numeric: "Balance", Objective: "Mortgage", ObjectiveValue: true,
			Conditions: []Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan", ObjectiveValue: true},
	}
}

// runSchedule resolves the queries fresh and runs them through
// RunContext with the given Defaults and a cold cache.
func runSchedule(t *testing.T, rel relation.Relation, d Defaults, queries []Query) (*StatsSet, error) {
	t.Helper()
	req := NewRequirements()
	for _, q := range queries {
		r, err := Resolve(rel, d, q)
		if err != nil {
			t.Fatal(err)
		}
		req.Add(r)
	}
	return RunContext(context.Background(), rel, d, NewCache(0), req)
}

// sameStats requires field-exact equality of the materialized
// statistics — counts, extremes, filter variants, and pair grids. The
// scatter-gather merge is integer-exact, so "close" is not enough.
func sameStats(t *testing.T, name string, got, want *StatsSet) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) || len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: schedule shape differs: %d/%d groups, %d/%d pairs",
			name, len(got.Groups), len(want.Groups), len(got.Pairs), len(want.Pairs))
	}
	for k, w := range want.Groups {
		g, ok := got.Groups[k]
		if !ok {
			t.Fatalf("%s: group %+v missing", name, k)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: group %+v differs:\ngot:  %+v\nwant: %+v", name, k, g, w)
		}
	}
	for k, w := range want.Pairs {
		g, ok := got.Pairs[k]
		if !ok {
			t.Fatalf("%s: pair %+v missing", name, k)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: pair grid %+v differs", name, k)
		}
	}
}

// TestScatterMatchesSerialExactly pins the tentpole property: the
// scattered, merged statistics are field-for-field identical to one
// serial counting scan, at every worker count, including worker pools
// larger and smaller than the shard count.
func TestScatterMatchesSerialExactly(t *testing.T) {
	rel, d := scatterFixture(t, 6000, 4)
	want, err := runSchedule(t, rel, d, scatterQueries())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) == 0 || len(want.Pairs) == 0 {
		t.Fatal("degenerate schedule: no groups or pairs materialized")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		ds := d
		var stats ScatterStats
		ds.Scatter = ScatterConfig{Workers: workers, Stats: &stats}
		got, err := runSchedule(t, rel, ds, scatterQueries())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Tasks.Load() == 0 {
			t.Fatalf("workers=%d: scatter path did not engage", workers)
		}
		sameStats(t, "workers="+string(rune('0'+workers)), got, want)
	}
}

// TestScatterSerialForTargetSchedules pins the float-sum guard: a
// schedule carrying target sums (the average operator) silently takes
// the serial path even with workers configured — addition order must
// never depend on segmentation — and still answers correctly.
func TestScatterSerialForTargetSchedules(t *testing.T) {
	rel, d := scatterFixture(t, 3000, 3)
	avg := []Query{{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1}}
	want, err := runSchedule(t, rel, d, avg)
	if err != nil {
		t.Fatal(err)
	}
	ds := d
	var stats ScatterStats
	ds.Scatter = ScatterConfig{Workers: 4, Stats: &stats}
	got, err := runSchedule(t, rel, ds, avg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tasks.Load() != 0 {
		t.Errorf("target-sum schedule was scattered (%d tasks): float merge order is not reproducible",
			stats.Tasks.Load())
	}
	sameStats(t, "avg", got, want)
}

// flakyWorker fails its first failures calls, then delegates — the
// transient-fault shape the retry loop must absorb.
type flakyWorker struct {
	inner Worker
	left  atomic.Int64
}

func (w *flakyWorker) Count(ctx context.Context, task *CountTask) (*Partial, error) {
	if w.left.Add(-1) >= 0 {
		return nil, errors.New("transient worker failure")
	}
	return w.inner.Count(ctx, task)
}

// TestScatterRetriesTransientFailures pins recovery path 1: failed
// attempts are retried (re-routed off the failing worker) and the
// merged result is still exact.
func TestScatterRetriesTransientFailures(t *testing.T) {
	rel, d := scatterFixture(t, 6000, 4)
	want, err := runSchedule(t, rel, d, scatterQueries())
	if err != nil {
		t.Fatal(err)
	}
	var stats ScatterStats
	ds := d
	ds.Scatter = ScatterConfig{
		Workers: 3,
		NewWorker: func(i int, r relation.Relation) Worker {
			w := &flakyWorker{inner: NewLocalWorker(r)}
			w.left.Store(1) // each worker's first attempt fails
			return w
		},
		MaxAttempts: 4,
		Backoff:     time.Microsecond,
		Stats:       &stats,
	}
	got, err := runSchedule(t, rel, ds, scatterQueries())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries.Load() == 0 {
		t.Error("transient failures injected but no retries recorded")
	}
	if stats.Fallbacks.Load() != 0 {
		t.Errorf("%d fallbacks: retries should have absorbed the transient failures", stats.Fallbacks.Load())
	}
	sameStats(t, "flaky", got, want)
}

// stallWorker never answers: it parks until the attempt deadline kills
// it. Its partials must be discarded, not merged.
type stallWorker struct{}

func (stallWorker) Count(ctx context.Context, task *CountTask) (*Partial, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// stallFirstWorker stalls out its first attempt, then delegates — so
// whichever worker dequeues first is guaranteed to trip the deadline.
type stallFirstWorker struct {
	inner  Worker
	stalls atomic.Int64
}

func (w *stallFirstWorker) Count(ctx context.Context, task *CountTask) (*Partial, error) {
	if w.stalls.Add(-1) >= 0 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return w.inner.Count(ctx, task)
}

// TestScatterTimeoutAbandonsStalledWorker pins recovery path 2: a
// stalled attempt trips the per-attempt deadline, the worker is
// abandoned, and its tasks complete elsewhere, exactly.
func TestScatterTimeoutAbandonsStalledWorker(t *testing.T) {
	rel, d := scatterFixture(t, 6000, 4)
	want, err := runSchedule(t, rel, d, scatterQueries())
	if err != nil {
		t.Fatal(err)
	}
	var stats ScatterStats
	ds := d
	ds.Scatter = ScatterConfig{
		Workers: 2,
		NewWorker: func(i int, r relation.Relation) Worker {
			w := &stallFirstWorker{inner: NewLocalWorker(r)}
			w.stalls.Store(1)
			return w
		},
		TaskTimeout: 30 * time.Millisecond,
		MaxAttempts: 3,
		Backoff:     time.Microsecond,
		Stats:       &stats,
	}
	got, err := runSchedule(t, rel, ds, scatterQueries())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timeouts.Load() == 0 {
		t.Error("stalled worker never tripped the per-attempt deadline")
	}
	sameStats(t, "stall", got, want)
}

// TestScatterFallbackWhenPoolBroken pins recovery path 3: with EVERY
// worker permanently broken, the coordinator direct-scans each task
// itself — the batch completes because the files are readable, and the
// answer is still exact.
func TestScatterFallbackWhenPoolBroken(t *testing.T) {
	rel, d := scatterFixture(t, 6000, 4)
	want, err := runSchedule(t, rel, d, scatterQueries())
	if err != nil {
		t.Fatal(err)
	}
	var stats ScatterStats
	ds := d
	ds.Scatter = ScatterConfig{
		Workers: 2,
		NewWorker: func(i int, r relation.Relation) Worker {
			w := &flakyWorker{}
			w.left.Store(1 << 30) // never recovers
			return w
		},
		MaxAttempts: 2,
		Backoff:     time.Microsecond,
		Stats:       &stats,
	}
	got, err := runSchedule(t, rel, ds, scatterQueries())
	if err != nil {
		t.Fatal(err)
	}
	if f, tasks := stats.Fallbacks.Load(), stats.Tasks.Load(); f != tasks {
		t.Errorf("broken pool: %d fallbacks for %d tasks, want all", f, tasks)
	}
	sameStats(t, "fallback", got, want)
}

// TestScatterExhaustionSurfacesStorageError pins the terminal path:
// when workers AND the coordinator's direct scan hit storage failures,
// one clean error surfaces, carrying the injected fault's identity and
// the worker-attempt history.
func TestScatterExhaustionSurfacesStorageError(t *testing.T) {
	rel, d := scatterFixture(t, 4000, 3)
	// Ordinal 1 is the fused sampling scan — leave it healthy so the
	// failure lands squarely in the counting phase; every scan after it
	// (worker attempts and the direct fallback) fails.
	fail := make([]int, 64)
	for i := range fail {
		fail[i] = i + 2
	}
	frel := relation.NewFaultRelation(rel, relation.FaultConfig{FailScans: fail, FailAfterRows: 500})
	ds := d
	ds.Scatter = ScatterConfig{Workers: 2, MaxAttempts: 2, Backoff: time.Microsecond}
	_, err := runSchedule(t, frel, ds, scatterQueries())
	if err == nil {
		t.Fatal("exhausted retries and failed fallback returned success")
	}
	if !errors.Is(err, relation.ErrInjected) {
		t.Fatalf("storage error identity lost: %v", err)
	}
}

// TestScatterCancellation pins context plumbing: cancelling the batch
// context aborts the scatter (and the whole run) with the context's
// error, promptly.
func TestScatterCancellation(t *testing.T) {
	rel, d := scatterFixture(t, 6000, 4)
	ds := d
	ds.Scatter = ScatterConfig{
		Workers:   2,
		NewWorker: func(i int, r relation.Relation) Worker { return stallWorker{} },
	}
	req := NewRequirements()
	for _, q := range scatterQueries() {
		r, err := Resolve(rel, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		req.Add(r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, rel, ds, NewCache(0), req)
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
		t.Fatal("cancelled run did not return (stalled workers held the batch)")
	}
}

// TestScatterCutsShardExact pins task placement: on a sharded relation
// the cuts are exactly the shard boundaries, one task per shard.
func TestScatterCutsShardExact(t *testing.T) {
	rel, _ := scatterFixture(t, 5000, 4)
	cuts := scatterCuts(rel, 8, relation.ColumnSet{}, nil)
	starts := rel.ShardStarts()
	if !reflect.DeepEqual(cuts, starts) {
		t.Errorf("scatter cuts %v != shard starts %v", cuts, starts)
	}
}
