package miner

import (
	"fmt"
	"math/rand"
	"path/filepath"
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
				if ds.TailScans != 1 || ds.RowsScanned != int64(delta) {
					t.Fatalf("append round %d: %d tail scans over %d rows, want 1 over %d",
						r, ds.TailScans, ds.RowsScanned, delta)
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
		})
	}
}

// TestAppendOverBudgetMatchesPlainColdSession pins the over-budget
// path: a huge append blows the bucket-error budget, the refresh drops
// the stale boundaries and every statistic counted over them, and the
// next batch samples and counts them like a cold session. So the
// re-queried answers equal a PLAIN cold session's, with no boundary
// pinning — also when a second, small append lands before any query,
// since nothing is sampled until a batch needs it.
func TestAppendOverBudgetMatchesPlainColdSession(t *testing.T) {
	const base = 2000
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := datagen.Materialize(bank, 2*base+100, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 150, Seed: 17, MinSupport: 0.05, MinConfidence: 0.55}
	queries := appendDiffQueries()
	for _, tails := range [][]int{{base}, {base, 100}} {
		mem, err := datagen.Materialize(bank, base, 23)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.ExecuteBatch(queries); err != nil {
			t.Fatal(err)
		}
		n := base
		for i, delta := range tails {
			nums, bools := sliceRows(t, full, n, n+delta)
			n += delta
			ds, err := sess.Append(nums, bools)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && ds.Resamples == 0 {
				t.Fatalf("100%% growth did not trip the bucket-error budget")
			}
			if ds.EntriesFolded != 0 {
				t.Fatalf("appends %v: %d entries folded after a trip, want 0", tails, ds.EntriesFolded)
			}
		}
		incr, err := sess.ExecuteBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := datagen.Materialize(bank, n, 23)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewSession(grown, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.ExecuteBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		requireAnswersEqual(t, fmt.Sprintf("over-budget appends %v", tails), incr, want)
	}
}

// sumSource is a relation whose two target columns mix ±1e16 with 0.5
// and 1: against 1e16 a 1 is absorbed or rounds the sum, so adding a
// bucket's rows in any other grouping than the cold scan's row order
// (summing the tail on its own and adding it to the cached sum, say)
// changes the sum's bits.
type sumSource struct{}

func (sumSource) Schema() relation.Schema {
	return relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "U", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	}
}

func (sumSource) Row(rng *rand.Rand, nums []float64, bools []bool) ([]float64, []bool) {
	big := func() float64 {
		switch r := rng.Intn(300); {
		case r == 0:
			return 1e16
		case r == 1:
			return -1e16
		case r < 100:
			return 0.5
		}
		return 1
	}
	x := rng.Float64() * 100
	t, u := big(), big()
	return append(nums, x, t, u), append(bools, rng.Intn(2) == 0)
}

// TestAverageAfterAppendRecountsAndMatches pins the float-sum fold: a
// refresh continues each cached target sum over the appended tail in
// row order, so average queries after an append read nothing and still
// answer bit-identically to a cold session over the same boundaries,
// with ±1e16 targets that expose any other addition order. It runs over
// memory and 3-shard v2 and v3 relations at PEs = Workers = 1, 2 and 4,
// and checks that the refresh reads only the tail.
func TestAverageAfterAppendRecountsAndMatches(t *testing.T) {
	const seed, base, delta = 23, 3000, 60
	src := sumSource{}
	full := datagen.MustMaterialize(src, base+delta, seed)
	avg := []Query{
		{Op: OpAverage, Numeric: "X", Target: "T", MinSupport: 0.1},
		{Op: OpAverage, Numeric: "X", Target: "U", MinSupport: 0.1},
		{Op: OpSupportRange, Numeric: "X", Target: "U", MinAverage: 1},
	}
	for _, format := range []int{0, relation.DiskFormatV2, relation.DiskFormatV3} {
		for _, par := range []int{1, 2, 4} {
			// grow appends rows [base, base+delta) to store, the storage
			// under the session.
			var store relation.Relation
			var grow func()
			name := fmt.Sprintf("memory/par=%d", par)
			if format == 0 {
				mem := datagen.MustMaterialize(src, base, seed)
				store, grow = mem, func() {
					nums, bools := sliceRows(t, full, base, base+delta)
					for i := range nums {
						mem.MustAppend(nums[i], bools[i])
					}
				}
			} else {
				name = fmt.Sprintf("sharded-v%d/par=%d", format, par)
				manifest := filepath.Join(t.TempDir(), "sum.oprs")
				if err := datagen.WriteSharded(manifest, src, base, seed, 3, format); err != nil {
					t.Fatal(err)
				}
				sr, err := relation.OpenSharded(manifest)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sr.Close() })
				store, grow = sr, func() {
					if _, err := relation.AppendToSharded(manifest, tailRelation(t, full, base, base+delta),
						relation.AppendOptions{Format: format}); err != nil {
						t.Fatal(err)
					}
					if _, err := sr.Reopen(); err != nil {
						t.Fatal(err)
					}
				}
			}
			counting := &relation.CountingRelation{R: store}
			cfg := Config{Buckets: 20, Seed: 17, PEs: par, Workers: par}
			sess, err := NewSession(counting, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.ExecuteBatch(avg); err != nil {
				t.Fatal(err)
			}

			grow()
			scans, rows := len(counting.Ranges), counting.Rows
			ds, err := sess.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if ds.RowsScanned != delta || counting.Rows-rows != delta {
				t.Errorf("%s: refresh scanned %d rows (%d delivered), want the %d-row tail",
					name, ds.RowsScanned, counting.Rows-rows, delta)
			}
			for _, r := range counting.Ranges[scans:] {
				if r[0] < base && r[0] != r[1] {
					t.Errorf("%s: refresh scanned [%d,%d), below the old count %d", name, r[0], r[1], base)
				}
			}
			scans, rows = len(counting.Ranges), counting.Rows
			incr, err := sess.ExecuteBatch(avg)
			if err != nil {
				t.Fatal(err)
			}
			if len(counting.Ranges) != scans || counting.Rows != rows {
				t.Errorf("%s: re-query issued %d scans over %d rows, want none",
					name, len(counting.Ranges)-scans, counting.Rows-rows)
			}

			cold, err := NewSession(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold.StatsCache().CopyBoundsFrom(sess.StatsCache())
			want, err := cold.ExecuteBatch(avg)
			if err != nil {
				t.Fatal(err)
			}
			requireAnswersEqual(t, name, incr, want)
		}
	}
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
	counting := &relation.CountingRelation{R: mem}
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

// BenchmarkAverageAfterAppend times an average query that follows an
// append: 200k bank rows in memory, then per iteration a 1% (2,000-row)
// Session.Append and one average query. Accumulated growth crosses the
// §3.4 bucket-error budget every eight or nine appends, so one such
// iteration samples and counts the group cold.
func BenchmarkAverageAfterAppend(b *testing.B) {
	const base, step = 200_000, 2_000
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		b.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, base, 1)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := NewSession(mem, Config{Buckets: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	avg := []Query{{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1}}
	query := func() {
		answers, err := sess.ExecuteBatch(avg)
		if err != nil {
			b.Fatal(err)
		}
		if answers[0].Err != nil {
			b.Fatal(answers[0].Err)
		}
	}
	query()
	rng := rand.New(rand.NewSource(2))
	nums, bools := make([][]float64, step), make([][]bool, step)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := range nums {
			nums[r], bools[r] = bank.Row(rng, nil, nil)
		}
		b.StartTimer()
		if _, err := sess.Append(nums, bools); err != nil {
			b.Fatal(err)
		}
		query()
	}
}
