// Incremental append: growing a relation under a live session.
//
// A mining service's table is rarely static — rows arrive every day.
// The paper's bucketed counts are per-bucket tallies, so an append of
// Δ rows does not stale them, it EXTENDS them: the session counts
// just the appended tail and folds the partial statistics into its
// cache with integer-exact merges. Ingest costs O(Δ) instead of the
// O(n) of dropping the cache and rebuilding. This example walks the
// cycle:
//
//  1. a sharded relation is built and a session warms its cache with
//     a mixed batch (two fused scans);
//
//  2. a day of new rows lands via AppendToSharded — new shard files,
//     their manifest lines committed in place — and RefreshFromStorage
//     folds them in with a tail-only counting scan, no boundary
//     re-sampling;
//
//  3. the warmed batch re-runs on the grown relation with ZERO
//     relation reads;
//
//  4. a bulk append blows the §3.4 bucket-error budget, and the
//     refresh drops the stale boundaries instead of folding, so the
//     next batch re-samples and recounts them like a cold session —
//     the correctness backstop.
//
// The walkthrough checks its own claims and exits non-zero when the
// refresh scans more than the appended tail, the re-query reads any
// byte, or the bulk refresh fails to drop its over-budget boundaries.
//
//	go run ./examples/append
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"optrule"
)

func main() {
	dir, err := os.MkdirTemp("", "optrule-append")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The base relation: 200k customers across 2 shard files. Appends
	// need the sharded backend — its manifest is what new shard files
	// commit through.
	manifest := filepath.Join(dir, "customers.oprs")
	rng := rand.New(rand.NewSource(11))
	if err := writeShards(manifest, rng, 200000); err != nil {
		log.Fatal(err)
	}
	rel, err := optrule.OpenSharded(manifest)
	if err != nil {
		log.Fatal(err)
	}
	defer rel.Close()

	session, err := optrule.NewSession(rel, optrule.Config{
		MinSupport:    0.05,
		MinConfidence: 0.55,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Moment 1: warm the cache. The mixed batch pays one sampling scan
	// plus one counting scan.
	batch := []optrule.Query{
		{Op: optrule.OpRules},
		{Op: optrule.OpRules, Numeric: "Balance", Objective: "CardLoan",
			ObjectiveValue: true,
			Conditions:     []optrule.Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: optrule.OpRules2D, Numeric: "Age", NumericB: "Balance",
			Objective: "CardLoan", ObjectiveValue: true, GridSide: 32,
			Regions: []optrule.RegionClass{optrule.XMonotoneClass}},
		{Op: optrule.OpTopK, Numeric: "Balance", Objective: "CardLoan",
			ObjectiveValue: true, K: 3},
	}
	rel.ResetBytesRead()
	answers, err := session.ExecuteBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm batch over %d tuples: %d queries, %.1f MB read (two scans)\n",
		rel.NumTuples(), len(answers), float64(rel.BytesRead())/(1<<20))
	printFirstRule(answers)

	// Moment 2: a day of rows arrives. AppendToSharded writes them to
	// a fresh shard file and commits its manifest line in place; the
	// open handle keeps its snapshot until the session refreshes.
	day, err := sampleDay(rng, 2000)
	if err != nil {
		log.Fatal(err)
	}
	added, err := optrule.AppendToSharded(manifest, day, optrule.AppendOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rel.ResetBytesRead()
	stats, err := session.RefreshFromStorage()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nappended %d rows; refresh scanned %d tail rows, folded %d cached entries, "+
		"dropped %d boundary sets (%.2f MB read)\n",
		added, stats.RowsScanned, stats.EntriesFolded, stats.Resamples,
		float64(rel.BytesRead())/(1<<20))
	if stats.RowsScanned != int64(added) {
		log.Fatalf("refresh scanned %d rows, want exactly the %d appended", stats.RowsScanned, added)
	}

	// Moment 3: the same batch on the GROWN relation — every statistic
	// was folded in place, so nothing is read at all.
	rel.ResetBytesRead()
	answers, err = session.ExecuteBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-query over %d tuples: %d bytes read (served from the folded cache)\n",
		rel.NumTuples(), rel.BytesRead())
	if rel.BytesRead() != 0 {
		log.Fatalf("re-query read %d bytes, want 0", rel.BytesRead())
	}
	printFirstRule(answers)

	// Moment 4: a bulk load. 20% growth exceeds the bucket-error
	// budget (≈0.5/√SampleFactor ≈ 7.9% at the default sample factor):
	// reusing the old boundaries could push bucket sizes outside the
	// paper's error guarantee, so the refresh drops them with every
	// count made over them. The next batch samples them over the full
	// relation — exactly what a cold session would compute — and
	// recounts.
	bulk, err := sampleDay(rng, 40000)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := optrule.AppendToSharded(manifest, bulk, optrule.AppendOptions{}); err != nil {
		log.Fatal(err)
	}
	stats, err = session.RefreshFromStorage()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbulk append of 40000 rows: %d boundary sets and %d entries dropped "+
		"(growth left the bucket-error budget)\n", stats.Resamples, stats.EntriesDropped)
	if stats.Resamples == 0 {
		log.Fatal("bulk append stayed inside the bucket-error budget; want its boundaries dropped")
	}
	if _, err := session.ExecuteBatch(batch); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("next batch re-sampled and recounted over %d tuples\n", rel.NumTuples())
}

// bankSchema is the example's customer schema.
func bankSchema() optrule.Schema {
	return optrule.Schema{
		{Name: "Balance", Kind: optrule.Numeric},
		{Name: "Age", Kind: optrule.Numeric},
		{Name: "CardLoan", Kind: optrule.Boolean},
		{Name: "AutoWithdraw", Kind: optrule.Boolean},
	}
}

// sampleRow draws one customer: middle-aged customers with mid-range
// balances are planted as the card-loan hot segment.
func sampleRow(rng *rand.Rand) ([]float64, []bool) {
	balance := 3000 * rng.ExpFloat64()
	age := 18 + 60*rng.Float64()
	auto := rng.Float64() < 0.4
	p := 0.15
	if balance >= 2000 && balance <= 8000 && age >= 30 && age < 45 {
		p = 0.75
	}
	if auto {
		p += 0.05
	}
	return []float64{balance, age}, []bool{rng.Float64() < p, auto}
}

// writeShards streams n customers into a 2-shard relation, removing
// every file it wrote when any step fails.
func writeShards(manifest string, rng *rand.Rand, n int) error {
	w, err := optrule.NewShardedWriter(manifest, bankSchema(), optrule.ShardedWriterOptions{
		Shards: 2, TotalRows: n,
	})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		nums, bools := sampleRow(rng)
		if err := w.Append(nums, bools); err != nil {
			w.Discard()
			return err
		}
	}
	return w.Close()
}

// sampleDay builds an in-memory batch of n new customers — the shape
// AppendToSharded ingests.
func sampleDay(rng *rand.Rand, n int) (*optrule.MemoryRelation, error) {
	day, err := optrule.NewMemoryRelation(bankSchema())
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		nums, bools := sampleRow(rng)
		if err := day.Append(nums, bools); err != nil {
			return nil, err
		}
	}
	return day, nil
}

// printFirstRule shows each answer's best result.
func printFirstRule(answers []optrule.Answer) {
	for i, a := range answers {
		if a.Err != nil {
			fmt.Printf("  q%d error: %v\n", i, a.Err)
			continue
		}
		switch {
		case len(a.Rules) > 0:
			fmt.Printf("  q%d (%s, %d rules): %s\n", i, a.Query.Op, len(a.Rules), a.Rules[0])
		case len(a.Regions) > 0:
			fmt.Printf("  q%d (%s): %s\n", i, a.Query.Op, a.Regions[0].String())
		case len(a.Rules2D) > 0:
			fmt.Printf("  q%d (%s): %s\n", i, a.Query.Op, a.Rules2D[0].String())
		default:
			fmt.Printf("  q%d (%s): no rule meets the thresholds\n", i, a.Query.Op)
		}
	}
}
