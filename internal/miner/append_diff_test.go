package miner

import (
	"reflect"
	"sync"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// The append differential suite: appending rows and folding them into
// the cached statistics must answer every query BIT-IDENTICAL to a
// cold rebuild over the grown relation — across storage backends,
// query shapes, and repeated small appends. Within the bucket-error
// budget the fold reuses the warm session's boundaries, so the cold
// control is pinned to the same boundaries (CopyBoundsFrom); the
// over-budget path re-samples exactly like a cold session and needs no
// pinning.

// appendDiffQueries is the mixed workload: all-attribute 1-D rules, a
// targeted query, a filtered query, a 2-D region query, top-k, and a
// conjunctive query.
func appendDiffQueries() []Query {
	return []Query{
		{Op: OpRules},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true},
		{Op: OpRules, Numeric: "Age", Objective: "Mortgage", ObjectiveValue: true,
			Conditions: []Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
			ObjectiveValue: true, GridSide: 32, Regions: []RegionClass{XMonotoneClass}},
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 3},
		{Op: OpConjunctive, Numeric: "Age",
			Objectives: []Condition{{Attr: "CardLoan", Value: true}},
			Conditions: []Condition{{Attr: "Mortgage", Value: true}}},
	}
}

// sliceRows extracts rows [start, end) of a materialized relation as
// per-row column-ordered slices, the Session.Append input shape.
func sliceRows(t *testing.T, full *relation.MemoryRelation, start, end int) ([][]float64, [][]bool) {
	t.Helper()
	schema := full.Schema()
	var numCols [][]float64
	var boolCols [][]bool
	for i, attr := range schema {
		if attr.Kind == relation.Numeric {
			col, err := full.NumericColumn(i)
			if err != nil {
				t.Fatal(err)
			}
			numCols = append(numCols, col)
		} else {
			col, err := full.BoolColumn(i)
			if err != nil {
				t.Fatal(err)
			}
			boolCols = append(boolCols, col)
		}
	}
	nums := make([][]float64, 0, end-start)
	bools := make([][]bool, 0, end-start)
	for row := start; row < end; row++ {
		nr := make([]float64, len(numCols))
		for c, col := range numCols {
			nr[c] = col[row]
		}
		br := make([]bool, len(boolCols))
		for c, col := range boolCols {
			br[c] = col[row]
		}
		nums = append(nums, nr)
		bools = append(bools, br)
	}
	return nums, bools
}

// tailRelation wraps rows [start, end) of full as a standalone memory
// relation, the AppendToSharded input shape.
func tailRelation(t *testing.T, full *relation.MemoryRelation, start, end int) *relation.MemoryRelation {
	t.Helper()
	tail := relation.MustNewMemoryRelation(full.Schema())
	nums, bools := sliceRows(t, full, start, end)
	for i := range nums {
		tail.MustAppend(nums[i], bools[i])
	}
	return tail
}

// requireAnswersEqual compares two answer sets payload-for-payload.
func requireAnswersEqual(t *testing.T, name string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("%s query %d: errs %v / %v", name, i, got[i].Err, want[i].Err)
		}
		if !reflect.DeepEqual(got[i].Rules, want[i].Rules) ||
			!reflect.DeepEqual(got[i].Rules2D, want[i].Rules2D) ||
			!reflect.DeepEqual(got[i].Regions, want[i].Regions) ||
			!reflect.DeepEqual(got[i].Range, want[i].Range) ||
			got[i].Tuples != want[i].Tuples {
			t.Errorf("%s query %d (%v): answers diverge\nincremental: %+v\ncold:        %+v",
				name, i, got[i].Query.Op, got[i], want[i])
		}
	}
}

// TestAppendThenQueryMatchesColdRebuild is the tentpole differential:
// warm a session on the base rows, append a tail in several small
// batches (each folded incrementally), and pin the re-queried answers
// bit-identical to a cold session over the grown data using the same
// boundaries — for every storage backend, including mixed-format
// shards, and with the re-query reading ZERO bytes from disk-backed
// storage.
func TestAppendThenQueryMatchesColdRebuild(t *testing.T) {
	const base, delta, rounds = 4000, 40, 3
	total := base + delta*rounds
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The generator's single sequential RNG gives the prefix property:
	// the first base rows of the total-row materialization ARE the base
	// materialization, so tails sliced from full continue it exactly.
	full, err := datagen.Materialize(bank, total, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 150, Seed: 17, MinSupport: 0.05, MinConfidence: 0.55}
	queries := appendDiffQueries()

	type backend struct {
		name         string
		baseFormat   int // sharded backends: format of the seed shards
		appendFormat int // sharded backends: format of appended shards
	}
	backends := []backend{
		{name: "memory"},
		{name: "sharded-v2", baseFormat: relation.DiskFormatV2, appendFormat: relation.DiskFormatV2},
		{name: "sharded-v3", baseFormat: relation.DiskFormatV3, appendFormat: relation.DiskFormatV3},
		{name: "sharded-mixed", baseFormat: relation.DiskFormatV3, appendFormat: relation.DiskFormatV2},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			var rel relation.Relation
			var manifest string
			if b.name == "memory" {
				mem, err := datagen.Materialize(bank, base, 23)
				if err != nil {
					t.Fatal(err)
				}
				rel = mem
			} else {
				manifest = t.TempDir() + "/bank.oprs"
				if err := datagen.WriteSharded(manifest, bank, base, 23, 2, b.baseFormat); err != nil {
					t.Fatal(err)
				}
				sr, err := relation.OpenSharded(manifest)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sr.Close() })
				rel = sr
			}
			sess, err := NewSession(rel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := sess.ExecuteBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range warm {
				if a.Err != nil {
					t.Fatalf("warm query %d: %v", i, a.Err)
				}
			}

			for r := 0; r < rounds; r++ {
				start, end := base+r*delta, base+(r+1)*delta
				var ds DeltaStats
				if b.name == "memory" {
					nums, bools := sliceRows(t, full, start, end)
					ds, err = sess.Append(nums, bools)
				} else {
					tail := tailRelation(t, full, start, end)
					if _, err := relation.AppendToSharded(manifest, tail,
						relation.AppendOptions{Format: b.appendFormat}); err != nil {
						t.Fatal(err)
					}
					ds, err = sess.RefreshFromStorage()
				}
				if err != nil {
					t.Fatalf("append round %d: %v", r, err)
				}
				if ds.Resamples != 0 {
					t.Fatalf("append round %d re-sampled within budget", r)
				}
				if ds.EntriesFolded == 0 {
					t.Fatalf("append round %d folded nothing", r)
				}
				if ds.RowsScanned != int64(delta) {
					t.Fatalf("append round %d scanned %d rows, want %d", r, ds.RowsScanned, delta)
				}
			}

			// Post-append re-query: fully covered, zero bytes re-read.
			if br, ok := rel.(interface {
				BytesRead() int64
				ResetBytesRead()
			}); ok {
				br.ResetBytesRead()
				defer func() {
					if n := br.BytesRead(); n != 0 {
						t.Errorf("post-append re-query read %d bytes, want 0 (boundaries and counts all folded)", n)
					}
				}()
			}
			incr, err := sess.ExecuteBatch(queries)
			if err != nil {
				t.Fatal(err)
			}

			// Cold control over the grown data, pinned to the warm
			// session's boundaries.
			var coldRel relation.Relation
			if b.name == "memory" {
				coldRel = full
			} else {
				sr, err := relation.OpenSharded(manifest)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sr.Close() })
				coldRel = sr
			}
			if coldRel.NumTuples() != total {
				t.Fatalf("grown relation holds %d tuples, want %d", coldRel.NumTuples(), total)
			}
			cold, err := NewSession(coldRel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold.StatsCache().CopyBoundsFrom(sess.StatsCache())
			want, err := cold.ExecuteBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			requireAnswersEqual(t, b.name, incr, want)

			cs := sess.CacheStats()
			if cs.DeltaTailScans != rounds {
				t.Errorf("cache counted %d tail scans, want %d", cs.DeltaTailScans, rounds)
			}
			if cs.DeltaRowsScanned != int64(delta*rounds) {
				t.Errorf("cache counted %d delta rows, want %d", cs.DeltaRowsScanned, delta*rounds)
			}
		})
	}
}

// TestAppendOverBudgetMatchesPlainColdSession pins the re-sample path:
// a huge append blows the bucket-error budget, the refresh re-samples
// with the cold RNG streams and drops the dependent statistics, and
// the re-queried answers equal a PLAIN cold session's — no boundary
// pinning, because the re-sampled boundaries already are the cold
// boundaries.
func TestAppendOverBudgetMatchesPlainColdSession(t *testing.T) {
	const base = 2000
	total := base * 2
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := datagen.Materialize(bank, total, 23)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, base, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 150, Seed: 17, MinSupport: 0.05, MinConfidence: 0.55}
	queries := appendDiffQueries()
	sess, err := NewSession(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecuteBatch(queries); err != nil {
		t.Fatal(err)
	}
	nums, bools := sliceRows(t, full, base, total)
	ds, err := sess.Append(nums, bools)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Resamples == 0 {
		t.Fatalf("100%% growth did not re-sample")
	}
	if ds.EntriesFolded != 0 {
		t.Fatalf("%d entries folded across a re-sample, want 0", ds.EntriesFolded)
	}
	incr, err := sess.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	requireAnswersEqual(t, "over-budget", incr, want)
}

// TestAverageAfterAppendRecountsAndMatches pins the float-sum
// discipline: the fold strips target sums (their accumulation order is
// observable in the last bits), so the next average query recounts
// them serially over the full relation — and lands bit-identical to a
// cold session over the same boundaries.
func TestAverageAfterAppendRecountsAndMatches(t *testing.T) {
	const base, delta = 3000, 60
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := datagen.Materialize(bank, base+delta, 23)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, base, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 150, Seed: 17}
	avg := []Query{{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1}}
	sess, err := NewSession(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecuteBatch(avg); err != nil {
		t.Fatal(err)
	}
	nums, bools := sliceRows(t, full, base, base+delta)
	if _, err := sess.Append(nums, bools); err != nil {
		t.Fatal(err)
	}
	incr, err := sess.ExecuteBatch(avg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold.StatsCache().CopyBoundsFrom(sess.StatsCache())
	want, err := cold.ExecuteBatch(avg)
	if err != nil {
		t.Fatal(err)
	}
	requireAnswersEqual(t, "average", incr, want)
}

// TestConcurrentBatchesAndAppends drives query batches against
// concurrent appends. The session's refresh lock orders them: every
// batch sees a consistent row count, no stale partial ever lands in
// the cache (generation tags), and the final state still answers
// bit-identical to a cold rebuild. Run under -race in CI.
func TestConcurrentBatchesAndAppends(t *testing.T) {
	const base, delta, rounds = 2000, 25, 8
	total := base + delta*rounds
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := datagen.Materialize(bank, total, 23)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, base, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 150, Seed: 17, MinSupport: 0.05, MinConfidence: 0.55}
	queries := appendDiffQueries()
	sess, err := NewSession(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				answers, err := sess.ExecuteBatch(queries)
				if err != nil {
					errc <- err
					return
				}
				for _, a := range answers {
					if a.Err != nil {
						errc <- a.Err
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			start, end := base+r*delta, base+(r+1)*delta
			nums, bools := sliceRows(t, full, start, end)
			if _, err := sess.Append(nums, bools); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	incr, err := sess.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold.StatsCache().CopyBoundsFrom(sess.StatsCache())
	want, err := cold.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	requireAnswersEqual(t, "concurrent", incr, want)
}

// TestSessionRefreshScansTailOnly pins the session-level O(Δ) claim
// with an instrumented relation: after a warm batch, growing the
// relation and refreshing reads rows at or above the old count ONLY,
// and the subsequent re-query reads nothing at all.
func TestSessionRefreshScansTailOnly(t *testing.T) {
	const base, delta = 3000, 50
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := datagen.Materialize(bank, base+delta, 23)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, base, 23)
	if err != nil {
		t.Fatal(err)
	}
	counting := &relation.RangeCountingRelation{R: mem}
	cfg := Config{Buckets: 150, Seed: 17, MinSupport: 0.05, MinConfidence: 0.55}
	sess, err := NewSession(counting, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := appendDiffQueries()
	if _, err := sess.ExecuteBatch(queries); err != nil {
		t.Fatal(err)
	}
	warmScans := len(counting.Ranges)

	// Grow the relation directly (outside the session) and refresh.
	nums, bools := sliceRows(t, full, base, base+delta)
	for i := range nums {
		mem.MustAppend(nums[i], bools[i])
	}
	ds, err := sess.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if ds.EntriesFolded == 0 {
		t.Fatalf("refresh folded nothing")
	}
	for _, r := range counting.Ranges[warmScans:] {
		if r[0] < base && r[0] != r[1] {
			t.Errorf("delta refresh scanned [%d,%d), below the old count %d: not O(Δ)", r[0], r[1], base)
		}
	}
	refreshScans := len(counting.Ranges)
	if refreshScans == warmScans {
		t.Fatalf("refresh issued no scans")
	}
	if _, err := sess.ExecuteBatch(queries); err != nil {
		t.Fatal(err)
	}
	if len(counting.Ranges) != refreshScans {
		t.Errorf("post-refresh re-query issued %d new scans, want 0", len(counting.Ranges)-refreshScans)
	}
}

// TestAppendByteCeiling pins the O(Δ) ingest cost in counted bytes on
// a 4-shard v2 relation. A 1% append inside the §3.4 bucket-error
// budget — AppendToSharded, RefreshFromStorage and the re-query
// together — reads at most 5% of what a cold rebuild of the grown
// relation reads, and the refresh scans exactly the appended rows. A
// further 10% append leaves the budget: the refresh re-samples and
// folds nothing.
func TestAppendByteCeiling(t *testing.T) {
	const n = 20000
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	manifest := t.TempDir() + "/bank.oprs"
	if err := datagen.WriteSharded(manifest, bank, n, 1, 4, relation.DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	cfg := Config{Buckets: 1000, Seed: 1}
	queries := appendDiffQueries()
	warm, err := NewSession(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := warm.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, answers)

	grown := n
	// grow appends the next delta rows of the seed's stream (the prefix
	// property makes them exactly the rows the relation lacks),
	// refreshes the warm session and re-runs the batch. It returns the
	// refresh statistics and the bytes the whole cycle read.
	grow := func(delta int) (DeltaStats, int64) {
		tail, err := datagen.MaterializeRange(bank, 1, grown, delta)
		if err != nil {
			t.Fatal(err)
		}
		grown += delta
		rel.ResetBytesRead()
		if _, err := relation.AppendToSharded(manifest, tail, relation.AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		ds, err := warm.RefreshFromStorage()
		if err != nil {
			t.Fatal(err)
		}
		answers, err := warm.ExecuteBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswers(t, answers)
		return ds, rel.BytesRead()
	}

	ds, deltaBytes := grow(n / 100)
	if ds.Resamples != 0 {
		t.Errorf("1%% append re-sampled %d boundary sets inside the budget", ds.Resamples)
	}
	if ds.EntriesFolded == 0 {
		t.Errorf("1%% append folded no cache entries")
	}
	if ds.RowsScanned != n/100 {
		t.Errorf("refresh scanned %d rows, appended %d", ds.RowsScanned, n/100)
	}
	rel.ResetBytesRead()
	cold, err := NewSession(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers, err = cold.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, answers)
	if coldBytes := rel.BytesRead(); deltaBytes*20 > coldBytes {
		t.Errorf("append, refresh and re-query read %d bytes, over 5%% of the cold rebuild's %d",
			deltaBytes, coldBytes)
	}

	ds, _ = grow(n / 10)
	if ds.Resamples == 0 {
		t.Errorf("a further 10%% append did not trip the bucket-error budget")
	}
	if ds.EntriesFolded != 0 {
		t.Errorf("over-budget refresh folded %d entries, want 0", ds.EntriesFolded)
	}
}
