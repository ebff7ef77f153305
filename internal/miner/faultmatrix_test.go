package miner

import (
	"context"
	"errors"
	"testing"
	"time"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// faultMatrixBackends opens the same bank tuple stream on every
// storage backend: memory, v1/v2/v3 single files, and a sharded
// relation with concurrent sub-scans.
func faultMatrixBackends(t *testing.T, n int) map[string]relation.Relation {
	t.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded := shardedOf(t, bank, n, 42, 3)
	sharded.SetConcurrentScans(2)
	return map[string]relation.Relation{
		"memory":  datagen.MustMaterialize(bank, n, 42),
		"v1":      diskOfFormat(t, bank, n, 42, relation.DiskFormatV1),
		"v2":      diskOfFormat(t, bank, n, 42, relation.DiskFormatV2),
		"v3":      diskOfFormat(t, bank, n, 42, relation.DiskFormatV3),
		"sharded": sharded,
	}
}

// TestFaultMatrixRulesIdentical is the differential fault matrix: for
// every backend × worker count × failure mode, the mined rules must be
// bit-identical to the healthy zero-worker baseline — faults may cost
// retries, re-routes, timeouts, and fallbacks, but never a different
// answer. Worker-layer faults are injected by wrapping each pool
// worker's relation in the deterministic fault harness.
func TestFaultMatrixRulesIdentical(t *testing.T) {
	backends := faultMatrixBackends(t, 6000)
	base := Config{Buckets: 60, Seed: 7, Workers: 2}

	baseline, err := MineAll(backends["memory"], base)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Rules) == 0 {
		t.Fatal("degenerate matrix: baseline mined no rules")
	}

	modes := []struct {
		name    string
		cfg     relation.FaultConfig // per-worker fault plan (Seed is offset per worker)
		scatter func(sc *ScatterConfig)
	}{
		{name: "healthy"},
		{name: "midscan-fail", cfg: relation.FaultConfig{FailProb: 0.4, FailAfterRows: 1200}},
		{name: "open-fail", cfg: relation.FaultConfig{FailProb: 0.4}},
		{name: "short-batches", cfg: relation.FaultConfig{ShortBatches: 97}},
		{name: "stall-timeout",
			cfg: relation.FaultConfig{FailEvery: 1, StallOnly: true, Stall: 80 * time.Millisecond},
			scatter: func(sc *ScatterConfig) {
				sc.TaskTimeout = 15 * time.Millisecond
				sc.MaxAttempts = 2
			}},
	}

	for name, rel := range backends {
		for _, workers := range []int{0, 2, 4} {
			for _, mode := range modes {
				if workers == 0 && mode.name != "healthy" {
					continue // worker-layer faults need a worker pool
				}
				cfg := base
				cfg.Scatter = ScatterConfig{Workers: workers, Backoff: time.Microsecond}
				if workers > 0 && mode.name != "healthy" {
					mcfg := mode.cfg
					cfg.Scatter.NewWorker = func(i int, r relation.Relation) Worker {
						wcfg := mcfg
						wcfg.Seed = int64(1000 + i)
						return NewLocalWorker(relation.NewFaultRelation(r, wcfg))
					}
				}
				if mode.scatter != nil {
					mode.scatter(&cfg.Scatter)
				}
				got, err := MineAll(rel, cfg)
				if err != nil {
					t.Fatalf("%s/w=%d/%s: %v", name, workers, mode.name, err)
				}
				sameRules(t, name+"/w="+mode.name, got, baseline)
			}
		}
	}
}

// TestFaultMatrixTransientWholeRelation injects budget-bounded faults
// at the RELATION layer — the session's own scans fail, not just the
// pool's — and pins that retries plus the direct fallback still
// deliver the exact baseline rules once the fault budget runs dry.
func TestFaultMatrixTransientWholeRelation(t *testing.T) {
	backends := faultMatrixBackends(t, 6000)
	base := Config{Buckets: 60, Seed: 7, Workers: 2}
	baseline, err := MineAll(backends["memory"], base)
	if err != nil {
		t.Fatal(err)
	}
	for name, rel := range backends {
		if name == "memory" {
			continue // scatter needs range scans; memory has no worker pool to retry with
		}
		// Ordinal 1 is the sampling scan — kept healthy so boundaries
		// match the baseline run; the next two scans (worker counting
		// attempts) fail, then the budget is dry and retries succeed.
		frel := relation.NewFaultRelation(rel, relation.FaultConfig{
			FailScans: []int{2, 3}, FailAfterRows: 800, MaxFaults: 2,
		})
		cfg := base
		cfg.Scatter = ScatterConfig{Workers: 2, Backoff: time.Microsecond}
		got, err := MineAll(frel, cfg)
		if err != nil {
			t.Fatalf("%s: transient faults not recovered: %v", name, err)
		}
		if frel.Injected() == 0 {
			t.Fatalf("%s: no faults were actually injected", name)
		}
		sameRules(t, name+"/transient", got, baseline)
	}
}

// TestBatchRetryExhaustionPerQueryErrors pins the terminal error
// semantics: when storage failures outlast every recovery layer
// (workers, retries, AND the coordinator's direct scan), the batch
// still returns — no panic, no deadlock — with the injected fault's
// identity in each resolved query's Answer.Err, while resolution
// errors stay per-query too.
func TestBatchRetryExhaustionPerQueryErrors(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sr := shardedOf(t, bank, 4000, 42, 3)
	fail := make([]int, 64)
	for i := range fail {
		fail[i] = i + 2 // every scan after the sampling pass fails, forever
	}
	frel := relation.NewFaultRelation(sr, relation.FaultConfig{FailScans: fail, FailAfterRows: 500})
	sess, err := NewSession(frel, Config{
		Buckets: 40, Seed: 7,
		Scatter: ScatterConfig{Workers: 2, MaxAttempts: 2, Backoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := sess.ExecuteBatch([]Query{
		{Op: OpRules, Objective: "CardLoan", ObjectiveValue: true},
		{Op: OpRules, Numeric: "Balance", Objective: "Mortgage", ObjectiveValue: true},
		{Op: OpRules, Numeric: "NoSuchAttr", Objective: "CardLoan", ObjectiveValue: true},
	})
	if err != nil {
		t.Fatalf("storage exhaustion must scope to queries, not fail the batch: %v", err)
	}
	if len(answers) != 3 {
		t.Fatalf("got %d answers for 3 queries", len(answers))
	}
	for i := 0; i < 2; i++ {
		if !errors.Is(answers[i].Err, relation.ErrInjected) {
			t.Errorf("query %d: Answer.Err = %v, want the injected fault's identity", i, answers[i].Err)
		}
	}
	if answers[2].Err == nil || errors.Is(answers[2].Err, relation.ErrInjected) {
		t.Errorf("query 2: resolution error replaced by the storage error: %v", answers[2].Err)
	}
	// The one-shot wrappers unwrap the per-query error into a plain
	// error return — the contract the pre-scatter fault tests pinned.
	if _, err := MineAll(frel, Config{Buckets: 40, Seed: 7}); err == nil || !errors.Is(err, relation.ErrInjected) {
		t.Errorf("MineAll over broken storage: %v, want injected-fault error", err)
	}
}

// TestBatchCancellationFailsBatch pins the other half of the error
// split: context cancellation is a caller decision, not a storage
// fault, so it fails the whole batch rather than filling per-query
// errors.
func TestBatchCancellationFailsBatch(t *testing.T) {
	rel, _ := bankRelation(t, 2000)
	sess, err := NewSession(rel, Config{Buckets: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	answers, err := sess.ExecuteBatchContext(ctx, []Query{
		{Op: OpRules, Objective: "CardLoan", ObjectiveValue: true},
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned err=%v", err)
	}
	if answers != nil {
		t.Fatal("cancelled batch returned partial answers")
	}
	// The session survives a cancelled batch: the next call answers.
	got, err := sess.ExecuteBatch([]Query{{Op: OpRules, Objective: "CardLoan", ObjectiveValue: true}})
	if err != nil || got[0].Err != nil {
		t.Fatalf("session broken after cancellation: %v / %v", err, got[0].Err)
	}
}
