package miner

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"optrule/internal/datagen"
)

// warmColdBatch materializes every statistic warmRequests re-threshold.
var warmColdBatch = []Query{
	{Op: OpRules},
	{Op: OpRules, Conditions: []Condition{{Attr: "AutoWithdraw", Value: true}}},
	{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 3},
	{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
	{Op: OpSupportRange, Numeric: "ServiceYears", Target: "Balance", MinAverage: 9000},
	{Op: OpConjunctive, Numeric: "Age",
		Objectives: []Condition{{Attr: "CardLoan", Value: true}},
		Conditions: []Condition{{Attr: "Mortgage", Value: true}}},
}

// warmRequests returns n cache-served requests over warmColdBatch's
// statistics: single-pair rules, conditional rules, top-k, both
// average operators and conjunctive rules at seeded thresholds.
func warmRequests(n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	numerics := []string{"Balance", "Age", "ServiceYears"}
	objectives := []string{"CardLoan", "Mortgage", "AutoWithdraw"}
	out := make([]Query, n)
	for i := range out {
		q := warmColdBatch[rng.Intn(len(warmColdBatch))]
		if q.Op == OpRules {
			q.Numeric = numerics[rng.Intn(len(numerics))]
			q.Objective, q.ObjectiveValue = objectives[rng.Intn(len(objectives))], true
		}
		out[i] = rethreshold(q, rng)
	}
	return out
}

// TestSessionConcurrentWarmRequests sends concurrent warm requests to
// one shared session right after an append, so every prepared row
// slot is empty and the goroutines race to build them. Every answer
// must equal a twin session's serial answer to the same request, and
// no request may miss the cache. CI runs it under -race.
func TestSessionConcurrentWarmRequests(t *testing.T) {
	const base, delta = 3000, 40
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full := datagen.MustMaterialize(bank, base+delta, 47)
	nums, bools := sliceRows(t, full, base, base+delta)
	twin := func() *Session {
		s, err := NewSession(datagen.MustMaterialize(bank, base, 47), Config{Buckets: 200, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExecuteBatch(warmColdBatch); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
		return s
	}
	shared, serial := twin(), twin()
	reqs := warmRequests(48, 3)
	want, err := serial.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	misses := shared.CacheStats().Misses
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + g*len(reqs)/goroutines) % len(reqs)
				answers, err := shared.ExecuteBatch(reqs[i : i+1])
				if err != nil {
					errs <- err
					return
				}
				a := answers[0]
				if fmt.Sprint(a.Err) != fmt.Sprint(want[i].Err) ||
					!reflect.DeepEqual(a.Rules, want[i].Rules) || !reflect.DeepEqual(a.Range, want[i].Range) {
					errs <- fmt.Errorf("goroutine %d: request %d (%+v) diverged from the serial answer", g, i, reqs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := shared.CacheStats().Misses; m != misses {
		t.Errorf("%d cache misses serving warm requests, want 0", m-misses)
	}
}

// TestWarmRulesRequestAllocations: once a group's rows are prepared, a
// warm rules request only sweeps them on a pooled Scratch, so it
// allocates as often at M = 1000 as at M = 100, and its bytes do not
// grow with M.
func TestWarmRulesRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not stable")
	}
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel := datagen.MustMaterialize(bank, 20_000, 53)
	q := []Query{{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
		MinSupport: 0.1, MinConfidence: 0.4}}
	measure := func(m int) (allocs, bytes float64) {
		s, err := NewSession(rel, Config{Buckets: m, Seed: 9, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		request := func() {
			answers, err := s.ExecuteBatch(q)
			if err != nil {
				t.Fatal(err)
			}
			if answers[0].Err != nil || len(answers[0].Rules) != 2 {
				t.Fatalf("M = %d: %d rules (%v), want 2", m, len(answers[0].Rules), answers[0].Err)
			}
		}
		request() // cold: counts the group and prepares its row
		allocs = testing.AllocsPerRun(50, request)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			request()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 50
	}
	allocs100, bytes100 := measure(100)
	allocs1000, bytes1000 := measure(1000)
	t.Logf("warm rules request: %v allocations / %.0f B at M = 100, %v / %.0f B at M = 1000",
		allocs100, bytes100, allocs1000, bytes1000)
	if allocs100 != allocs1000 {
		t.Errorf("warm rules request allocates %v times at M = 100 but %v at M = 1000", allocs100, allocs1000)
	}
	if bytes1000 > 2*bytes100 {
		t.Errorf("warm rules request allocates %.0f B at M = 1000, over twice the %.0f B at M = 100", bytes1000, bytes100)
	}
}

// BenchmarkWarmRequest times one cache-served rules request (one
// numeric, one objective, fresh thresholds each time) on a session
// over 200k bank rows at M = 1000 whose cache already holds the group.
func BenchmarkWarmRequest(b *testing.B) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSession(datagen.MustMaterialize(bank, 200_000, 1), Config{Buckets: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.ExecuteBatch([]Query{{Op: OpRules}}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	qs := make([]Query, 64)
	for i := range qs {
		qs[i] = Query{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
			MinSupport: 0.02 + 0.2*rng.Float64(), MinConfidence: 0.3 + 0.5*rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers, err := s.ExecuteBatch(qs[i%len(qs) : i%len(qs)+1])
		if err != nil {
			b.Fatal(err)
		}
		if answers[0].Err != nil {
			b.Fatal(answers[0].Err)
		}
	}
}
