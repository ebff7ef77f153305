// Fault-tolerant mining: the retry walkthrough.
//
// The counting scan is where a mining batch spends its I/O, so it is
// the pass that recovers from storage faults. It splits the rows into
// chunks across Config.PEs workers and merges their tallies EXACTLY,
// and Config.Scatter sets its per-chunk retry policy: a failed or
// timed-out chunk is retried by the worker that counted it, which
// first drops its partial tallies and requeues every chunk they held.
// Average queries' float sums resume where the failed attempt's logged
// rows end, so every answer stays bit-identical to a healthy run. This
// example injects faults on the session's own relation with the
// deterministic harness (optrule.FaultRelation):
//
//  1. a healthy baseline, serial vs four workers — identical answers;
//
//  2. scans that die mid-chunk — retries absorb every failure, answers
//     still identical;
//
//  3. scans that stall past the per-attempt timeout — the attempts are
//     cut and retried, answers still identical;
//
//  4. storage so broken every attempt fails — the batch still returns,
//     with the fault's identity in each query's Answer.Err;
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

	// A sharded relation: 200k bank tuples in 8 shards.
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

	cfg := optrule.Config{MinSupport: 0.05, MinConfidence: 0.55, Buckets: 500, Seed: 7, PEs: 4}
	queries := []optrule.Query{
		{Op: optrule.OpRules, Objective: "CardLoan", ObjectiveValue: true},
		{Op: optrule.OpRules, Numeric: "Balance", Objective: "Mortgage", ObjectiveValue: true},
		{Op: optrule.OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
	}
	batch := func(rel optrule.Relation, cfg optrule.Config) []optrule.Answer {
		session, err := optrule.NewSession(rel, cfg)
		if err != nil {
			log.Fatal(err)
		}
		answers, err := session.ExecuteBatch(queries)
		if err != nil {
			log.Fatal(err) // only cancellation fails the batch itself
		}
		return answers
	}

	// 1. Healthy baseline: serial, then four workers.
	serial := cfg
	serial.PEs = 1
	baseline := batch(rel, serial)
	for i, a := range baseline {
		expect(a.Err == nil, "healthy: query %d: %v", i, a.Err)
	}
	expect(baseline[2].Range != nil, "healthy: the average query found no range")
	identical := reflect.DeepEqual(baseline, batch(rel, cfg))
	fmt.Printf("healthy:   %d rules + average range, serial vs 4 workers, identical=%v\n",
		len(baseline[0].Rules)+len(baseline[1].Rules), identical)
	expect(identical, "healthy: parallel answers differ from serial")

	// 2. Flaky storage: three counting scans die 10k rows into their
	// chunk. Each failed chunk is retried, and the merge stays exact,
	// so neither the rules nor the average's float sums can drift.
	var stats optrule.ScatterStats
	flaky := cfg
	flaky.Scatter = optrule.ScatterConfig{MaxAttempts: 4, Stats: &stats}
	frel := optrule.NewFaultRelation(rel, optrule.FaultConfig{FailScans: []int{1, 3, 4}, FailAfterRows: 10000})
	identical = reflect.DeepEqual(baseline, batch(frel, flaky))
	fmt.Printf("flaky:     %d faults injected, %d retries — identical=%v\n",
		frel.Injected(), stats.Retries.Load(), identical)
	expect(identical, "flaky: answers differ from serial")
	expect(stats.Retries.Load() > 0, "flaky: no chunk was retried")

	// 3. Stalled storage: two scans hang 300 ms before their first
	// batch, past the 100 ms per-attempt timeout. The attempts are cut
	// and retried.
	stats = optrule.ScatterStats{}
	stall := cfg
	stall.Scatter = optrule.ScatterConfig{MaxAttempts: 3, TaskTimeout: 100 * time.Millisecond, Stats: &stats}
	frel = optrule.NewFaultRelation(rel, optrule.FaultConfig{
		FailScans: []int{1, 2}, StallOnly: true, Stall: 300 * time.Millisecond,
	})
	identical = reflect.DeepEqual(baseline, batch(frel, stall))
	fmt.Printf("stall:     %d timeouts, %d retries — identical=%v\n",
		stats.Timeouts.Load(), stats.Retries.Load(), identical)
	expect(identical, "stall: answers differ from serial")
	expect(stats.Timeouts.Load() > 0, "stall: no attempt timed out")

	// 4. Broken storage: every counting scan fails, so every chunk
	// spends its attempts. The batch still returns cleanly: each
	// resolved query carries the storage error in its Answer.Err, and
	// errors.Is reaches the injected sentinel through every layer.
	broken := cfg
	broken.Scatter = optrule.ScatterConfig{MaxAttempts: 2}
	frel = optrule.NewFaultRelation(rel, optrule.FaultConfig{FailEvery: 1, FailAfterRows: 5000})
	for i, a := range batch(frel, broken) {
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
