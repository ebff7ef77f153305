package miner

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/plan"
	"optrule/internal/relation"
)

// sessionBackends materializes the same deterministic tuple stream on
// every storage backend, so the differential matrix compares
// bit-identical data: in-memory, v1 (row-major) disk, v2 (columnar)
// disk, and a 3-shard sharded relation.
func sessionBackends(t *testing.T, src datagen.RowSource, n int, seed int64) []struct {
	name string
	rel  relation.Relation
} {
	t.Helper()
	mem, err := datagen.Materialize(src, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	openDisk := func(version int) relation.Relation {
		path := t.TempDir() + "/rel.opr"
		if err := datagen.WriteDiskFormat(path, src, n, seed, version); err != nil {
			t.Fatal(err)
		}
		dr, err := relation.OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		return dr
	}
	manifest := t.TempDir() + "/rel.oprs"
	if err := datagen.WriteSharded(manifest, src, n, seed, 3, 0); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	return []struct {
		name string
		rel  relation.Relation
	}{
		{"memory", mem},
		{"v1", openDisk(relation.DiskFormatV1)},
		{"v2", openDisk(relation.DiskFormatV2)},
		{"sharded", sr},
	}
}

// requireDeepEqual fails unless got and want are deeply equal —
// including every floating-point field, since the session engine draws
// bit-identical samples and counts in the same row order as the legacy
// pipelines.
func requireDeepEqual(t *testing.T, name string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs:\nsession: %+v\nlegacy:  %+v", name, got, want)
	}
}

// TestSessionEntryPointsMatchLegacy pins every wrapped one-shot entry
// point rule-for-rule identical to its pre-session implementation on
// bank and retail data across all four storage backends.
func TestSessionEntryPointsMatchLegacy(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	retail, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	type pick struct {
		numeric, objective, target string
		cond                       Condition
	}
	gens := []struct {
		name string
		gen  datagen.RowSource
		p    pick
	}{
		{"bank", bank, pick{numeric: "Balance", objective: "CardLoan", target: "Age",
			cond: Condition{Attr: "AutoWithdraw", Value: true}}},
		{"retail", retail, pick{numeric: "Amount", objective: "Pizza", target: "ItemCount",
			cond: Condition{Attr: "Coke", Value: true}}},
	}
	cfg := Config{Buckets: 150, Seed: 17, MinSupport: 0.05, MinConfidence: 0.55}
	for _, g := range gens {
		for _, b := range sessionBackends(t, g.gen, 6000, 23) {
			name := g.name + "/" + b.name
			rel := b.rel

			gotAll, err := MineAll(rel, cfg)
			if err != nil {
				t.Fatalf("%s MineAll: %v", name, err)
			}
			wantAll, err := mineAllPerAttribute(rel, cfg)
			if err != nil {
				t.Fatalf("%s legacy MineAll: %v", name, err)
			}
			requireDeepEqual(t, name+" MineAll rules", gotAll.Rules, wantAll.Rules)

			gotSup, gotConf, err := Mine(rel, g.p.numeric, g.p.objective, true,
				[]Condition{g.p.cond}, cfg)
			if err != nil {
				t.Fatalf("%s Mine: %v", name, err)
			}
			wantSup, wantConf, err := legacyMine(rel, g.p.numeric, g.p.objective, true,
				[]Condition{g.p.cond}, cfg)
			if err != nil {
				t.Fatalf("%s legacy Mine: %v", name, err)
			}
			requireDeepEqual(t, name+" Mine support", gotSup, wantSup)
			requireDeepEqual(t, name+" Mine confidence", gotConf, wantConf)

			for _, kind := range []RuleKind{OptimizedConfidence, OptimizedSupport} {
				got, err := MineTopK(rel, g.p.numeric, g.p.objective, true, kind, 3, cfg)
				if err != nil {
					t.Fatalf("%s MineTopK: %v", name, err)
				}
				want, err := legacyMineTopK(rel, g.p.numeric, g.p.objective, true, kind, 3, cfg)
				if err != nil {
					t.Fatalf("%s legacy MineTopK: %v", name, err)
				}
				requireDeepEqual(t, fmt.Sprintf("%s MineTopK %v", name, kind), got, want)
			}

			gotAvg, err := MaxAverageRange(rel, g.p.numeric, g.p.target, 0.10, cfg)
			if err != nil {
				t.Fatalf("%s MaxAverageRange: %v", name, err)
			}
			wantAvg, err := legacyMaxAverageRange(rel, g.p.numeric, g.p.target, 0.10, cfg)
			if err != nil {
				t.Fatalf("%s legacy MaxAverageRange: %v", name, err)
			}
			requireDeepEqual(t, name+" MaxAverageRange", gotAvg, wantAvg)

			gotMsr, err := MaxSupportRange(rel, g.p.numeric, g.p.target, wantAvg.OverallAverage, cfg)
			if err != nil {
				t.Fatalf("%s MaxSupportRange: %v", name, err)
			}
			wantMsr, err := legacyMaxSupportRange(rel, g.p.numeric, g.p.target, wantAvg.OverallAverage, cfg)
			if err != nil {
				t.Fatalf("%s legacy MaxSupportRange: %v", name, err)
			}
			requireDeepEqual(t, name+" MaxSupportRange", gotMsr, wantMsr)

			gotCSup, gotCConf, err := MineConjunctive(rel, g.p.numeric,
				[]Condition{{Attr: g.p.objective, Value: true}}, []Condition{g.p.cond}, cfg)
			if err != nil {
				t.Fatalf("%s MineConjunctive: %v", name, err)
			}
			wantCSup, wantCConf, err := legacyMineConjunctive(rel, g.p.numeric,
				[]Condition{{Attr: g.p.objective, Value: true}}, []Condition{g.p.cond}, cfg)
			if err != nil {
				t.Fatalf("%s legacy MineConjunctive: %v", name, err)
			}
			requireDeepEqual(t, name+" MineConjunctive support", gotCSup, wantCSup)
			requireDeepEqual(t, name+" MineConjunctive confidence", gotCConf, wantCConf)
		}
	}
}

// TestSessionExactDomainsMatchLegacy covers the finest-bucket
// (ExactDomainLimit) path through the session planner.
func TestSessionExactDomainsMatchLegacy(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 5000, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 80, Seed: 4, ExactDomainLimit: 120, MineGain: true, MineNegations: true}
	got, err := MineAll(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mineAllPerAttribute(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "exact-domain MineAll rules", got.Rules, want.Rules)

	gotSup, gotConf, err := Mine(rel, "Age", "CardLoan", true, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSup, wantConf, err := legacyMine(rel, "Age", "CardLoan", true, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "exact-domain Mine support", gotSup, wantSup)
	requireDeepEqual(t, "exact-domain Mine confidence", gotConf, wantConf)
}

// mixedBatch is the heterogeneous 1-D + 2-D batch the scan-count and
// concurrency tests share: all-attribute rules, a conditioned targeted
// query, a 2-D pair with a region class, ranked ranges, an
// average-operator query, and a conjunctive query.
func mixedBatch() []Query {
	return []Query{
		{Op: OpRules},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
			Conditions: []plan.Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
			ObjectiveValue: true, GridSide: 32, Regions: []RegionClass{XMonotoneClass}},
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 3},
		{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
		{Op: OpConjunctive, Numeric: "Age",
			Objectives: []plan.Condition{{Attr: "CardLoan", Value: true}},
			Conditions: []plan.Condition{{Attr: "Mortgage", Value: true}}},
	}
}

// checkAnswers fails on any per-query error.
func checkAnswers(t *testing.T, answers []Answer) {
	t.Helper()
	for i, a := range answers {
		if a.Err != nil {
			t.Fatalf("query %d: %v", i, a.Err)
		}
	}
}

// TestSessionBatchTwoScans pins the executor's cost contract: a mixed
// 1-D/2-D batch costs exactly TWO passes (one point read per sampled
// boundary set, one counting pass), and a re-query batch with different
// thresholds, kinds, and region classes costs ZERO reads — every
// statistic it needs is cached.
func TestSessionBatchTwoScans(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	n := mem.NumTuples()
	for _, pes := range []int{1, 4} {
		counting := &relation.CountingRelation{R: mem}
		s, err := NewSession(counting, Config{Buckets: 200, Seed: 5, PEs: pes})
		if err != nil {
			t.Fatal(err)
		}

		// One point-read sampling pass, then one counting pass: a memory
		// relation counts in pes equal-row chunks.
		answers, err := s.ExecuteBatch(mixedBatch())
		if err != nil {
			t.Fatal(err)
		}
		checkAnswers(t, answers)
		reads := counting.PointReads
		if reads != 5 || counting.Scans != pes || !counting.Tiles(0, 0, n) {
			t.Fatalf("PEs=%d: mixed batch cost %d point reads and scans %v, want 5 point reads and %d scans tiling [0,%d)",
				pes, reads, counting.Ranges, pes, n)
		}

		// Same statistics, different query plane: thresholds, kinds, K,
		// and region class all change; nothing may be read again.
		requery := []Query{
			{Op: OpRules, MinSupport: 0.2, MinConfidence: 0.7,
				Kinds: []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain}},
			{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
				Conditions:    []plan.Condition{{Attr: "AutoWithdraw", Value: true}},
				MinConfidence: 0.8},
			{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
				ObjectiveValue: true, GridSide: 32,
				Kinds:   []RuleKind{OptimizedGain},
				Regions: []RegionClass{RectilinearConvexClass}},
			{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 5,
				Kinds: []RuleKind{OptimizedSupport}},
			{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.3},
			{Op: OpSupportRange, Numeric: "Balance", Target: "Age", MinAverage: 1},
		}
		answers, err = s.ExecuteBatch(requery)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswers(t, answers)
		if counting.Scans != pes || counting.PointReads != reads {
			t.Fatalf("PEs=%d: cached re-query batch read again: %d scans and %d point reads in total, want still %d and %d",
				pes, counting.Scans, counting.PointReads, pes, reads)
		}
		if st := s.CacheStats(); st.Hits == 0 || st.Entries == 0 {
			t.Fatalf("cache did not serve the re-query: %+v", st)
		}

		// A genuinely new statistic (an unseen objective row on a cached
		// group) costs one more counting pass — the boundaries stay
		// cached, so no sampling pass runs.
		answers, err = s.ExecuteBatch([]Query{{
			Op: OpRules, Numeric: "Balance", Objective: "Mortgage", ObjectiveValue: false,
		}})
		if err != nil {
			t.Fatal(err)
		}
		checkAnswers(t, answers)
		if counting.Scans != 2*pes || counting.PointReads != reads || !counting.Tiles(pes, 0, n) {
			t.Fatalf("PEs=%d: new objective row cost scans %v and %d point reads, want %d scans tiling [0,%d) and none",
				pes, counting.Ranges[pes:], counting.PointReads-reads, pes, n)
		}
	}
}

// TestSessionBatchMatchesOneShots pins that a batched execution
// answers every query identically to its standalone one-shot wrapper.
func TestSessionBatchMatchesOneShots(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 200, Seed: 5}
	s, err := NewSession(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := s.ExecuteBatch(mixedBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, answers)

	wantAll, err := MineAll(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "batch MineAll", answers[0].Rules, wantAll.Rules)

	wantSup, wantConf, err := Mine(rel, "Balance", "CardLoan", true,
		[]Condition{{Attr: "AutoWithdraw", Value: true}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotRules []Rule
	gotRules = append(gotRules, answers[1].Rules...)
	found := map[RuleKind]*Rule{}
	for i := range gotRules {
		found[gotRules[i].Kind] = &gotRules[i]
	}
	requireDeepEqual(t, "batch Mine support", found[OptimizedSupport], wantSup)
	requireDeepEqual(t, "batch Mine confidence", found[OptimizedConfidence], wantConf)

	wantRegion, err := MineXMonotone(rel, "Balance", "Age", "CardLoan", true, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[2].Regions) != 1 || wantRegion == nil {
		t.Fatalf("region missing: batch=%d oneshot=%v", len(answers[2].Regions), wantRegion)
	}
	requireDeepEqual(t, "batch region", answers[2].Regions[0], *wantRegion)

	wantTopK, err := MineTopK(rel, "Balance", "CardLoan", true, OptimizedConfidence, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "batch topk", answers[3].Rules, wantTopK)

	wantAvg, err := MaxAverageRange(rel, "Balance", "Age", 0.1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "batch average", *answers[4].Range, wantAvg)
}

// TestSessionBatchSharesScans pins what batching buys in counted bytes
// on a v2 disk relation: one batched session answers the mixed
// workload exactly as per-query sessions do while reading strictly
// fewer bytes, and a re-thresholded re-query on the warm session reads
// none at all.
func TestSessionBatchSharesScans(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/bank.opr"
	if err := datagen.WriteDiskFormat(path, bank, 6000, 1, relation.DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	cfg := Config{Buckets: 200, Seed: 1}
	queries := mixedBatch()

	var perQuery []Answer
	for _, q := range queries {
		s, err := NewSession(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := s.ExecuteBatch([]Query{q})
		if err != nil {
			t.Fatal(err)
		}
		perQuery = append(perQuery, answers...)
	}
	perQueryBytes := rel.BytesRead()

	s, err := NewSession(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel.ResetBytesRead()
	batched, err := s.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	batchBytes := rel.BytesRead()
	requireAnswersEqual(t, "batched vs per-query", batched, perQuery)
	if batchBytes <= 0 || batchBytes >= perQueryBytes {
		t.Errorf("batch read %d bytes, per-query sessions %d: want 0 < batch < per-query", batchBytes, perQueryBytes)
	}

	requery := make([]Query, len(queries))
	for i, q := range queries {
		if q.Op == OpAverage {
			q.MinSupport = 0.25 // the average operator takes no confidence threshold
		} else {
			q.MinSupport, q.MinConfidence = 0.12, 0.65
		}
		switch q.Op {
		case OpTopK:
			q.K = 5
		case OpRules2D:
			q.Regions = []RegionClass{RectilinearConvexClass}
		}
		requery[i] = q
	}
	rel.ResetBytesRead()
	answers, err := s.ExecuteBatch(requery)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, answers)
	if n := rel.BytesRead(); n != 0 {
		t.Errorf("cached re-query read %d bytes, want 0", n)
	}
}

// TestSessionBadQueryDoesNotSinkBatch pins per-query error isolation.
func TestSessionBadQueryDoesNotSinkBatch(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(rel, Config{Buckets: 50})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := s.ExecuteBatch([]Query{
		{Op: OpRules, Numeric: "Nope"},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true},
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", K: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err == nil {
		t.Errorf("unknown attribute accepted")
	}
	if answers[1].Err != nil || len(answers[1].Rules) == 0 {
		t.Errorf("good query failed alongside bad one: %v", answers[1].Err)
	}
	if answers[2].Err == nil {
		t.Errorf("k=0 accepted")
	}
}

// TestSessionRejectsUnusedQueryFields pins resolution's fail-loudly
// contract: a populated field the op would silently ignore (a
// conditioned top-k, a second axis on a 1-D query, rule kinds on an
// average query) is an error, not a silently different mining run.
func TestSessionRejectsUnusedQueryFields(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(rel, Config{Buckets: 50})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Query{
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", K: 3,
			Conditions: []plan.Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpRules, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan"},
		{Op: OpAverage, Numeric: "Balance", Target: "Age",
			Kinds: []RuleKind{OptimizedSupport}},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", GridSide: 32},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
			Buckets: 100},
		{Op: OpConjunctive, Numeric: "Balance",
			Objectives: []plan.Condition{{Attr: "CardLoan", Value: true}}, K: 2},
	}
	answers, err := s.ExecuteBatch(bad)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if a.Err == nil {
			t.Errorf("query %d with an op-unused field accepted: %+v", i, bad[i])
		}
	}
}

// TestSessionCacheEviction pins the LRU bound: a tiny budget forces
// evictions, the stats report them, and evicted statistics are
// recomputed correctly on the next query.
func TestSessionCacheEviction(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(rel, Config{Buckets: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(8 << 10) // far below one 500-bucket group's footprint
	first, err := s.MineAll()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine2D("Balance", "Age", "CardLoan", true, OptimizedSupport, 64); err != nil {
		t.Fatal(err)
	}
	again, err := s.MineAll()
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "post-eviction MineAll", again.Rules, first.Rules)
	if st := s.CacheStats(); st.Evictions == 0 {
		t.Errorf("tiny cache recorded no evictions: %+v", st)
	} else if st.MaxBytes != 8<<10 {
		t.Errorf("cache bound not applied: %+v", st)
	}
}

// sessionConcurrencyCheck hammers one shared session from many
// goroutines and requires every answer to match the sequential result.
// CI runs this under -race for the memory and sharded backends.
func sessionConcurrencyCheck(t *testing.T, rel relation.Relation) {
	t.Helper()
	s, err := NewSession(rel, Config{Buckets: 120, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	queries := mixedBatch()
	want, err := s.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, want)
	s.InvalidateCache()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Rotate the batch so goroutines collide on overlapping but
			// differently-ordered statistics.
			qs := append(append([]Query{}, queries[g%len(queries):]...), queries[:g%len(queries)]...)
			answers, err := s.ExecuteBatch(qs)
			if err != nil {
				errs <- err
				return
			}
			for i, a := range answers {
				j := (i + g%len(queries)) % len(queries)
				if a.Err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %w", g, i, a.Err)
					return
				}
				if !reflect.DeepEqual(a.Rules, want[j].Rules) ||
					!reflect.DeepEqual(a.Regions, want[j].Regions) ||
					!reflect.DeepEqual(a.Rules2D, want[j].Rules2D) ||
					!reflect.DeepEqual(a.Range, want[j].Range) {
					errs <- fmt.Errorf("goroutine %d query %d diverged from sequential answer", g, i)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSessionConcurrentRowGrowth races cache-hit readers of one count
// group against publishers that keep ADDING objective rows to the
// same group key — the cache must merge by copy-on-write, never by
// mutating a published statistic a reader may hold (regression test
// for a concurrent map read/write crash; run under -race in CI).
func TestSessionConcurrentRowGrowth(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 1500, 29)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(rel, Config{Buckets: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the (Balance, 60, "") group with one objective row.
	if _, _, err := s.Mine("Balance", "CardLoan", true, nil); err != nil {
		t.Fatal(err)
	}
	objectives := []struct {
		attr string
		want bool
	}{
		{"CardLoan", true}, // steady cache-hit reader
		{"CardLoan", false},
		{"Mortgage", true},
		{"Mortgage", false},
		{"AutoWithdraw", true},
		{"AutoWithdraw", false},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(objectives))
	for _, obj := range objectives {
		wg.Add(1)
		go func(attr string, want bool) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, err := s.Mine("Balance", attr, want, nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(obj.attr, obj.want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSessionConcurrentMemory races concurrent batches on one shared
// session over the in-memory backend.
func TestSessionConcurrentMemory(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 3000, 19)
	if err != nil {
		t.Fatal(err)
	}
	sessionConcurrencyCheck(t, rel)
}

// TestSessionConcurrentSharded races concurrent batches on one shared
// session over the sharded disk backend.
func TestSessionConcurrentSharded(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	manifest := t.TempDir() + "/rel.oprs"
	if err := datagen.WriteSharded(manifest, bank, 3000, 19, 3, 0); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	sessionConcurrencyCheck(t, sr)
}
