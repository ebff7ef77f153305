// Fault-tolerant mining: the scatter-gather walkthrough.
//
// The counting scan is where a mining batch spends its I/O, so it is
// the pass that scatters: with Config.Scatter.Workers > 0 the fused
// counting schedule is split at shard boundaries, dispatched one task
// per shard across a worker pool, and the partial tallies are merged
// EXACTLY — integer counts only — so the mined rules are bit-identical
// at every worker count. This example walks the recovery ladder with
// faults injected by the deterministic harness (optrule.FaultRelation):
//
//  1. a healthy baseline, serial vs scattered — identical rules;
//
//  2. a pool whose workers' scans keep dying mid-task — retries and
//     re-routing absorb every failure, rules still identical;
//
//  3. a pool that is broken outright — the coordinator direct-scans
//     each task itself, rules still identical;
//
//  4. storage so broken even the direct scans fail — the batch still
//     returns, with the fault's identity in each query's Answer.Err;
//
//  5. Close racing a scan — a defined ErrBusy, never a torn mapping.
//
// Each scenario checks its own guarantee and the walkthrough exits
// non-zero when one fails, so it doubles as an end-to-end check.
//
// The bit-identity this example demonstrates is also enforced at the
// source level: the optlint suite (`go run ./cmd/optlint ./...`; see
// "Enforced invariants" in the package docs) mechanically rejects
// map-iteration-order leaks, wall-clock and globally seeded randomness
// in kernel paths, and order-dependent float accumulation in merges.
//
//	go run ./examples/faults
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"optrule"
)

func main() {
	dir, err := os.MkdirTemp("", "optrule-faults")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A sharded relation: 200k bank tuples in 8 shards. Shard
	// boundaries are the scatter-gather task boundaries.
	const tuples, shards = 200000, 8
	src, err := optrule.SampleBankData(tuples, 42)
	if err != nil {
		log.Fatal(err)
	}
	manifest := filepath.Join(dir, "bank.oprs")
	if err := optrule.ConvertToSharded(src, manifest, shards, optrule.DiskFormatV2); err != nil {
		log.Fatal(err)
	}
	rel, err := optrule.OpenSharded(manifest)
	if err != nil {
		log.Fatal(err)
	}
	defer rel.Close()

	cfg := optrule.Config{MinSupport: 0.05, MinConfidence: 0.55, Buckets: 500, Seed: 7}

	// 1. Healthy baseline: serial, then scattered over four workers.
	baseline, err := optrule.MineAll(rel, cfg)
	if err != nil {
		log.Fatal(err)
	}
	scattered := cfg
	scattered.Scatter = optrule.ScatterConfig{Workers: 4}
	got, err := optrule.MineAll(rel, scattered)
	if err != nil {
		log.Fatal(err)
	}
	identical := reflect.DeepEqual(baseline.Rules, got.Rules)
	fmt.Printf("healthy:   %d rules serial, %d rules over 4 workers, identical=%v\n",
		len(baseline.Rules), len(got.Rules), identical)
	expect(identical, "healthy: scattered rules differ from serial")

	// 2. Flaky pool: every worker reads through the fault harness — a
	// third of its scans die 10k rows into a task. The coordinator
	// retries failed tasks (re-routed off the failing worker) and the
	// merge stays exact, so the rules cannot drift.
	var stats optrule.ScatterStats
	flaky := cfg
	flaky.Scatter = optrule.ScatterConfig{
		Workers: 4,
		NewWorker: func(i int, rel optrule.Relation) optrule.Worker {
			return optrule.NewLocalWorker(optrule.NewFaultRelation(rel, optrule.FaultConfig{
				Seed: int64(i), FailProb: 0.33, FailAfterRows: 10000,
			}), false)
		},
		Backoff: time.Millisecond,
		Stats:   &stats,
	}
	got, err = optrule.MineAll(rel, flaky)
	if err != nil {
		log.Fatal(err)
	}
	identical = reflect.DeepEqual(baseline.Rules, got.Rules)
	fmt.Printf("flaky:     %d tasks, %d retries, %d fallbacks — identical=%v\n",
		stats.Tasks.Load(), stats.Retries.Load(), stats.Fallbacks.Load(), identical)
	expect(identical, "flaky: rules differ from serial")
	expect(stats.Tasks.Load() > 0, "flaky: no task was scattered")

	// 3. Broken pool: every worker fails every scan before the first
	// batch. Attempts exhaust, and the coordinator falls back to
	// direct scans of the (healthy) relation — the batch completes
	// because the files are readable.
	stats = optrule.ScatterStats{}
	broken := cfg
	broken.Scatter = optrule.ScatterConfig{
		Workers: 2,
		NewWorker: func(i int, rel optrule.Relation) optrule.Worker {
			return optrule.NewLocalWorker(optrule.NewFaultRelation(rel, optrule.FaultConfig{
				FailEvery: 1, // every scan, forever
			}), false)
		},
		MaxAttempts: 2,
		Backoff:     time.Millisecond,
		Stats:       &stats,
	}
	got, err = optrule.MineAll(rel, broken)
	if err != nil {
		log.Fatal(err)
	}
	identical = reflect.DeepEqual(baseline.Rules, got.Rules)
	fmt.Printf("broken:    all %d tasks direct-scanned by the coordinator (%d fallbacks) — identical=%v\n",
		stats.Tasks.Load(), stats.Fallbacks.Load(), identical)
	expect(identical, "broken: rules differ from serial")
	expect(stats.Tasks.Load() > 0, "broken: no task was scattered")
	expect(stats.Fallbacks.Load() == stats.Tasks.Load(), "broken: %d fallbacks for %d tasks, want all",
		stats.Fallbacks.Load(), stats.Tasks.Load())

	// 4. Broken storage: the relation ITSELF fails every scan after
	// the sampling pass, so workers and the direct fallback all fail.
	// The batch still returns cleanly: each resolved query carries the
	// storage error in its Answer.Err, and errors.Is reaches the
	// injected sentinel through every layer.
	fail := make([]int, 64)
	for i := range fail {
		fail[i] = i + 2 // ordinal 1 is the sampling scan; everything after fails
	}
	frel := optrule.NewFaultRelation(rel, optrule.FaultConfig{FailScans: fail, FailAfterRows: 5000})
	session, err := optrule.NewSession(frel, optrule.Config{
		Buckets: 500, Seed: 7,
		Scatter: optrule.ScatterConfig{Workers: 2, MaxAttempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	answers, err := session.ExecuteBatch([]optrule.Query{
		{Op: optrule.OpRules, Objective: "CardLoan", ObjectiveValue: true},
		{Op: optrule.OpRules, Numeric: "Balance", Objective: "Mortgage", ObjectiveValue: true},
	})
	if err != nil {
		log.Fatal(err) // only cancellation fails the batch itself
	}
	for i, a := range answers {
		injected := errors.Is(a.Err, optrule.ErrInjected)
		fmt.Printf("exhausted: query %d: injected=%v (%v)\n", i, injected, a.Err)
		expect(injected, "exhausted: query %d lost the injected fault's identity", i)
	}

	// 5. Close vs Scan: closing mid-scan is a defined error, not a
	// race. The scan finishes unharmed; Close succeeds once quiescent.
	inScan := make(chan struct{})
	unblock := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		first := true
		scanDone <- rel.Scan(optrule.ColumnSet{Numeric: []int{0}}, func(b *optrule.Batch) error {
			if first {
				first = false
				close(inScan)
				<-unblock
			}
			return nil
		})
	}()
	<-inScan
	busy := errors.Is(rel.Close(), optrule.ErrBusy)
	fmt.Printf("close:     during scan -> ErrBusy=%v", busy)
	close(unblock)
	if err := <-scanDone; err != nil {
		log.Fatal(err)
	}
	err = rel.Close()
	fmt.Printf("; after scan -> err=%v\n", err)
	expect(busy, "close: Close during a scan did not report ErrBusy")
	expect(err == nil, "close: Close after the scan failed: %v", err)
}

// expect stops the walkthrough when a scenario misses its guarantee.
func expect(ok bool, format string, args ...any) {
	if !ok {
		log.Fatalf("faults: "+format, args...)
	}
}
