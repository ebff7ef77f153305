package plan

import (
	"context"
	"sync/atomic"
	"time"

	"optrule/internal/relation"
)

// The counting executor's recovery policy and its Worker seam. With
// Defaults.Scatter.Workers > 0, countRange hands its chunks — cut at
// shard boundaries on sharded relations — to a pool of Workers instead
// of scanning them in-process, and the policy below decides what a
// failed chunk costs. The merge is bit-exact because a scattered
// schedule carries only integer counts and extremes (float target sums
// never scatter — see useScatter), so mined rules are identical to a
// single-node run REGARDLESS of worker count, task placement, retries,
// or which recovery action produced each partial.
//
// Failure handling, in escalation order: a failed or timed-out attempt
// is retried with capped exponential backoff, re-routed away from the
// worker that just failed it, and — once its attempt budget is spent —
// counted directly by the coordinator against the underlying relation,
// so a batch always completes if the files are readable. A chunk whose
// direct scan also fails surfaces one clean error. The zero
// ScatterConfig is the degenerate policy: chunks are scanned
// in-process, once, with no fallback.

// CountTask is one shard slice's share of a batch's fused counting
// schedule: tally every group and pair over global rows [Start, End).
// Boundaries are read from Set; workers never sample. (An out-of-process
// worker transport would serialize the needs and boundaries; the
// in-process pool shares them.)
type CountTask struct {
	Start, End int
	Groups     []*GroupNeed
	Pairs      []*PairNeed
	Set        *StatsSet
}

// Partial is one task's tallies — opaque to callers, exact under
// Merge. Partials from any mix of workers, retries, and direct scans
// merge to the same totals as one serial scan.
type Partial struct {
	st *execState
}

// Merge folds other into p. Tasks must cover disjoint row ranges of
// the same schedule.
func (p *Partial) Merge(other *Partial) { p.st.merge(other.st) }

// Worker executes counting tasks. Implementations must honor ctx —
// returning promptly once it is cancelled — and must build their
// partials from the task's boundaries only, so every worker tallies
// identically. The in-process implementation is NewLocalWorker; a
// process- or network-separated worker implements the same contract
// over a transport.
type Worker interface {
	Count(ctx context.Context, task *CountTask) (*Partial, error)
}

// localWorker counts against a relation in-process.
type localWorker struct {
	rel relation.Relation
	ref bool
}

// NewLocalWorker returns the in-process Worker over rel. ref selects
// the reference per-tuple kernel (Defaults.RefKernel).
func NewLocalWorker(rel relation.Relation, ref bool) Worker {
	return &localWorker{rel: rel, ref: ref}
}

// Count implements Worker: one fused counting scan of the task's row
// range, checking ctx between batches so cancellation and deadlines
// cut a scan short instead of running it to completion.
func (w *localWorker) Count(ctx context.Context, task *CountTask) (*Partial, error) {
	cols, numPos, boolPos := execLayout(task.Groups, task.Pairs)
	st, err := newExecState(task.Set, task.Groups, task.Pairs, numPos, boolPos, w.ref)
	if err != nil {
		return nil, err
	}
	pred := commonFilterPred(task.Groups, task.Pairs)
	if err := scanChunk(ctx, w.rel, cols, pred, st, task.Start, task.End); err != nil {
		return nil, err
	}
	return &Partial{st: st}, nil
}

// ScatterStats counts the coordinator's recovery actions — one struct
// per ScatterConfig, written atomically by the worker pool. Tests and
// benchmarks read it to prove faults were actually exercised.
type ScatterStats struct {
	Tasks     atomic.Int64 // tasks scattered
	Retries   atomic.Int64 // failed attempts that were requeued
	Timeouts  atomic.Int64 // attempts cut by TaskTimeout
	Fallbacks atomic.Int64 // tasks the coordinator direct-scanned
}

// ScatterConfig is the counting executor's recovery policy. The zero
// value (Workers <= 0) counts every chunk in-process with one attempt
// and no fallback.
type ScatterConfig struct {
	// Workers is the worker-pool size. 0 counts in-process.
	Workers int
	// NewWorker supplies worker i's implementation; nil uses the
	// in-process NewLocalWorker over the session relation. Tests inject
	// failing, stalling, or remote workers here.
	NewWorker func(i int, rel relation.Relation) Worker
	// TaskTimeout bounds one attempt of one task; a stalled worker is
	// abandoned (its goroutine drains harmlessly) and the task is
	// retried elsewhere. 0 means no per-attempt deadline. Default 30s.
	TaskTimeout time.Duration
	// MaxAttempts is the per-task worker-attempt budget before the
	// coordinator falls back to a direct scan. Default 3.
	MaxAttempts int
	// Backoff is the delay before a task's first retry; each further
	// retry doubles it up to MaxBackoff. Defaults 2ms and 250ms.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Stats, when non-nil, receives the coordinator's recovery
	// counters.
	Stats *ScatterStats
}

// withDefaults fills the unset tuning knobs.
func (sc ScatterConfig) withDefaults() ScatterConfig {
	if sc.TaskTimeout == 0 {
		sc.TaskTimeout = 30 * time.Second
	}
	if sc.MaxAttempts <= 0 {
		sc.MaxAttempts = 3
	}
	if sc.Backoff <= 0 {
		sc.Backoff = 2 * time.Millisecond
	}
	if sc.MaxBackoff <= 0 {
		sc.MaxBackoff = 250 * time.Millisecond
	}
	if sc.Stats == nil {
		sc.Stats = &ScatterStats{}
	}
	return sc
}

// useScatter reports whether a counting scan hands its chunks to the
// worker pool: workers enabled, an integer-exact schedule
// (float target sums stay serial so their addition order never depends
// on segmentation — the scanParallelism rule), and a range-scannable,
// non-empty relation.
func useScatter(rel relation.Relation, d Defaults, groups []*GroupNeed) bool {
	if d.Scatter.Workers <= 0 {
		return false
	}
	for _, g := range groups {
		if len(g.Targets) > 0 {
			return false
		}
	}
	if _, ok := rel.(relation.RangeScanner); !ok {
		return false
	}
	return rel.NumTuples() > 0
}

// recovery derives the executor's recovery policy and worker pool from
// d.Scatter. When the schedule does not scatter, chunks are scanned
// in-process (nil pool) with one attempt each and no fallback, so a
// failed chunk fails the scan.
func recovery(rel relation.Relation, d Defaults, groups []*GroupNeed) (ScatterConfig, []Worker) {
	if !useScatter(rel, d, groups) {
		return ScatterConfig{MaxAttempts: 1, Stats: &ScatterStats{}}, nil
	}
	sc := d.Scatter.withDefaults()
	workers := make([]Worker, sc.Workers)
	for i := range workers {
		if sc.NewWorker != nil {
			workers[i] = sc.NewWorker(i, rel)
		} else {
			workers[i] = NewLocalWorker(rel, d.RefKernel)
		}
	}
	return sc, workers
}

// scatterCuts picks the task boundaries: exact shard boundaries on a
// sharded relation (one task per non-empty shard — the scatter-gather
// unit of ROADMAP item 3, and the retry/fallback granularity), cost-
// balanced storage-aligned chunks elsewhere. On single-file v3 storage
// the chunks are priced from the zone maps under the schedule's
// pushdown predicate, so tasks covering pruned regions span many rows
// and tasks covering surviving groups stay small — the already-dynamic
// task queue then load-balances them across the pool.
func scatterCuts(rel relation.Relation, workers int, cols relation.ColumnSet, pred *relation.Predicate) []int {
	n := rel.NumTuples()
	if sr, ok := rel.(*relation.ShardedRelation); ok {
		cuts := []int{0}
		for _, s := range sr.ShardStarts()[1:] {
			if s > cuts[len(cuts)-1] { // merge empty shards
				cuts = append(cuts, s)
			}
		}
		if cuts[len(cuts)-1] != n {
			cuts = append(cuts, n)
		}
		return cuts
	}
	if workers > n {
		workers = n
	}
	chunks := relation.PlanScanChunks(rel, workers, cols, pred)
	cuts := make([]int, 0, len(chunks)+1)
	cuts = append(cuts, 0)
	for _, c := range chunks {
		cuts = append(cuts, c.End)
	}
	return cuts
}

// attemptTask runs one attempt of one task under the per-attempt
// deadline. A worker that outlives its deadline is abandoned: its
// goroutine finishes into a buffered channel and is garbage collected,
// and its partial — built on private state — is discarded, never
// merged.
func attemptTask(ctx context.Context, w Worker, task *CountTask, timeout time.Duration) (*Partial, error) {
	actx := ctx
	cancel := func() {}
	if timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	type result struct {
		p   *Partial
		err error
	}
	ch := make(chan result, 1)
	go func() {
		p, err := w.Count(actx, task)
		ch <- result{p, err}
	}()
	select {
	case r := <-ch:
		return r.p, r.err
	case <-actx.Done():
		return nil, actx.Err()
	}
}

// sleepCtx waits for d, or until ctx is done; it reports whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
