package miner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// faultMatrixBackends opens the same bank tuple stream on every
// storage backend: memory, v1/v2/v3 single files, and a sharded
// relation.
func faultMatrixBackends(t *testing.T, n int) map[string]relation.Relation {
	t.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]relation.Relation{
		"memory":  datagen.MustMaterialize(bank, n, 42),
		"v1":      diskOfFormat(t, bank, n, 42, relation.DiskFormatV1),
		"v2":      diskOfFormat(t, bank, n, 42, relation.DiskFormatV2),
		"v3":      diskOfFormat(t, bank, n, 42, relation.DiskFormatV3),
		"sharded": shardedOf(t, bank, n, 42, 3),
	}
}

// faultMatrixQueries is the matrix's batch: every numeric attribute's
// rules, a conditioned rule query and an average query, whose float
// target sums must survive retries bit for bit.
var faultMatrixQueries = []Query{
	{Op: OpRules, Objective: "CardLoan", ObjectiveValue: true},
	{Op: OpRules, Numeric: "Balance", Objective: "Mortgage", ObjectiveValue: true,
		Conditions: []Condition{{Attr: "AutoWithdraw", Value: true}}},
	{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
}

// faultMatrixBatch answers faultMatrixQueries in a fresh session over
// rel, failing the test on any batch or per-query error.
func faultMatrixBatch(t *testing.T, name string, rel relation.Relation, cfg Config) []Answer {
	t.Helper()
	sess, err := NewSession(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := sess.ExecuteBatch(faultMatrixQueries)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, a := range answers {
		if a.Err != nil {
			t.Fatalf("%s: query %d: %v", name, i, a.Err)
		}
	}
	return answers
}

// TestFaultMatrixRulesIdentical is the differential fault matrix: for
// every backend × PEs × storage fault mode, the batch's answers must be
// bit-identical to the healthy serial baseline — faults may cost
// retries and timeouts, but never a different answer. Faults are
// injected on the session's own relation, with budgets the retry
// policy outlasts.
func TestFaultMatrixRulesIdentical(t *testing.T) {
	backends := faultMatrixBackends(t, 6000)
	base := Config{Buckets: 60, Seed: 7, Workers: 2, PEs: 1}
	baseline := faultMatrixBatch(t, "baseline", backends["memory"], base)
	if len(baseline[0].Rules) == 0 || baseline[2].Range == nil {
		t.Fatal("degenerate matrix: baseline mined no rules or no average range")
	}

	modes := []struct {
		name    string
		faults  relation.FaultConfig
		timeout time.Duration
	}{
		{name: "healthy"},
		{name: "midscan-fail", faults: relation.FaultConfig{FailScans: []int{1, 2, 3}, FailAfterRows: 1200}},
		{name: "open-fail", faults: relation.FaultConfig{FailProb: 1, MaxFaults: 2}},
		{name: "short-batches", faults: relation.FaultConfig{ShortBatches: 97}},
		{name: "stall-timeout", timeout: 50 * time.Millisecond,
			faults: relation.FaultConfig{FailScans: []int{1}, StallOnly: true, Stall: 200 * time.Millisecond}},
	}
	for name, rel := range backends {
		for _, pes := range []int{1, 2, 4} {
			for _, mode := range modes {
				run := fmt.Sprintf("%s/pes%d/%s", name, pes, mode.name)
				var stats ScatterStats
				cfg := base
				cfg.PEs = pes
				cfg.Scatter = ScatterConfig{MaxAttempts: 4, TaskTimeout: mode.timeout, Stats: &stats}
				frel := relation.NewFaultRelation(rel, mode.faults)
				got := faultMatrixBatch(t, run, frel, cfg)
				if !reflect.DeepEqual(got, baseline) {
					t.Errorf("%s: answers differ from the healthy baseline", run)
				}
				retries, timeouts := stats.Retries.Load(), stats.Timeouts.Load()
				if (mode.faults.FailScans != nil || mode.faults.FailProb > 0) && retries == 0 {
					t.Errorf("%s: no fault was retried", run)
				}
				if mode.timeout > 0 && timeouts == 0 {
					t.Errorf("%s: no attempt timed out", run)
				}
				if frel.Injected() != retries-timeouts {
					t.Errorf("%s: %d faults injected but %d retried", run, frel.Injected(), retries-timeouts)
				}
			}
		}
	}
}

// TestFaultMatrixTransientWholeRelation injects budget-bounded faults
// on every backend's own scans: the first two counting scans fail
// mid-chunk, then the budget is dry and the retries succeed with the
// exact baseline rules.
func TestFaultMatrixTransientWholeRelation(t *testing.T) {
	backends := faultMatrixBackends(t, 6000)
	base := Config{Buckets: 60, Seed: 7, Workers: 2}
	baseline, err := MineAll(backends["memory"], base)
	if err != nil {
		t.Fatal(err)
	}
	for name, rel := range backends {
		// Sampling reads points, which are never faulted, so ordinal 1
		// is the first counting scan.
		frel := relation.NewFaultRelation(rel, relation.FaultConfig{
			FailScans: []int{1, 2}, FailAfterRows: 800, MaxFaults: 2,
		})
		cfg := base
		cfg.PEs = 2
		cfg.Scatter = ScatterConfig{MaxAttempts: 3}
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
// semantics: when storage failures outlast every retry, the batch
// still returns — no panic, no deadlock — with the injected fault's
// identity in each resolved query's Answer.Err, average queries
// included, while resolution errors stay per-query too.
func TestBatchRetryExhaustionPerQueryErrors(t *testing.T) {
	queries := append(append([]Query(nil), faultMatrixQueries...),
		Query{Op: OpRules, Numeric: "NoSuchAttr", Objective: "CardLoan", ObjectiveValue: true})
	for name, rel := range faultMatrixBackends(t, 4000) {
		for _, pes := range []int{1, 2, 4} {
			run := fmt.Sprintf("%s/pes%d", name, pes)
			// Every counting scan fails, forever; sampling reads points.
			frel := relation.NewFaultRelation(rel, relation.FaultConfig{FailEvery: 1, FailAfterRows: 500})
			sess, err := NewSession(frel, Config{
				Buckets: 40, Seed: 7, PEs: pes,
				Scatter: ScatterConfig{MaxAttempts: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			answers, err := sess.ExecuteBatch(queries)
			if err != nil {
				t.Fatalf("%s: storage exhaustion must scope to queries, not fail the batch: %v", run, err)
			}
			if len(answers) != len(queries) {
				t.Fatalf("%s: got %d answers for %d queries", run, len(answers), len(queries))
			}
			last := len(queries) - 1
			for i := 0; i < last; i++ {
				if !errors.Is(answers[i].Err, relation.ErrInjected) {
					t.Errorf("%s: query %d: Answer.Err = %v, want the injected fault's identity", run, i, answers[i].Err)
				}
			}
			if answers[last].Err == nil || errors.Is(answers[last].Err, relation.ErrInjected) {
				t.Errorf("%s: query %d: resolution error replaced by the storage error: %v", run, last, answers[last].Err)
			}
			// The one-shot wrappers unwrap the per-query error into a
			// plain error return.
			if _, err := MineAll(frel, Config{Buckets: 40, Seed: 7, PEs: pes}); !errors.Is(err, relation.ErrInjected) {
				t.Errorf("%s: MineAll over broken storage: %v, want injected-fault error", run, err)
			}
		}
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
