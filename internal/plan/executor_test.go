package plan

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"optrule/internal/relation"
)

// TestScatterCancellationDuringBackoff pins that a retry backoff never
// outlives the batch: with every worker failing and a 2 s backoff,
// cancelling the context must end the run promptly, not after the
// sleep.
func TestScatterCancellationDuringBackoff(t *testing.T) {
	rel, d := scatterFixture(t, 6000, 4)
	ds := d
	ds.Scatter = ScatterConfig{
		Workers: 2,
		NewWorker: func(i int, r relation.Relation) Worker {
			w := &flakyWorker{}
			w.left.Store(1 << 30) // never recovers
			return w
		},
		Backoff:    2 * time.Second,
		MaxBackoff: 2 * time.Second,
	}
	req := NewRequirements()
	for _, q := range scatterQueries() {
		r, err := Resolve(rel, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		req.Add(r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, rel, ds, NewCache(0), req)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
		if waited := time.Since(cancelled); waited > 250*time.Millisecond {
			t.Fatalf("cancelled run returned %v after cancel: the backoff sleep held it", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// writeDeltaRel copies mem into a relation writer (a v3 file or a
// sharded writer) with small block groups, so a tail chunk can start
// inside the old rows.
func writeDeltaRel(t *testing.T, mem *relation.MemoryRelation,
	w interface {
		Append([]float64, []bool) error
		Close() error
	}) {
	t.Helper()
	cols := relation.ColumnSet{Numeric: []int{0, 1}, Bool: []int{2}}
	err := mem.Scan(cols, func(b *relation.Batch) error {
		for row := 0; row < b.Len; row++ {
			if err := w.Append([]float64{b.Numeric[0][row], b.Numeric[1][row]}, []bool{b.Bool[0][row]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// deltaSnapshot reads every statistic req names back out of cache,
// ready for reflect.DeepEqual.
func deltaSnapshot(t *testing.T, cache *LRUCache, req *Requirements) *StatsSet {
	t.Helper()
	set := newStatsSet()
	for _, gk := range req.GroupOrder {
		s, ok := cache.Get1D(gk)
		if !ok {
			t.Fatalf("group %+v missing from cache", gk)
		}
		set.Groups[gk] = s
	}
	for _, pk := range req.PairOrder {
		s, ok := cache.Get2D(pk)
		if !ok {
			t.Fatalf("pair %+v missing from cache", pk)
		}
		s.Grid.Total() // settle the grid's memoized total, which DeepEqual sees
		set.Pairs[pk] = s
	}
	return set
}

// pairsOnly keeps req's pair grids and drops its groups: a schedule
// that parallelizes without PEs being set.
func pairsOnly(req *Requirements) *Requirements {
	req.Groups, req.GroupOrder = map[GroupKey]*GroupNeed{}, nil
	return req
}

// filteredOnly keeps req's B-filtered group alone: a schedule whose
// filter is pushed down to the zone maps.
func filteredOnly(req *Requirements) *Requirements {
	gk := req.GroupOrder[1]
	req.Groups = map[GroupKey]*GroupNeed{gk: req.Groups[gk]}
	req.GroupOrder = []GroupKey{gk}
	req.Pairs, req.PairOrder = map[PairKey]*PairNeed{}, nil
	return req
}

// clusteredDeltaRel is deltaTestRel with B true only in the first 200
// rows of every 2000, so v3 zone maps refute whole block groups under
// B=true.
func clusteredDeltaRel(t *testing.T, n int) *relation.MemoryRelation {
	t.Helper()
	rel := deltaTestRel(t, 0)
	for i := 0; i < n; i++ {
		x := float64((i * 37) % 1000)
		if i%97 == 0 {
			x = math.NaN()
		}
		rel.MustAppend([]float64{x, float64((i * 53) % 500)}, []bool{i%2000 < 200})
	}
	return rel
}

// TestRunDeltaParallelTailMatchesSerialAndCold pins the parallel tail
// fold: the chunk plan of the grown relation, clipped to the appended
// rows (its first tail chunk starts below oldN), must fold to exactly
// the statistics of the one-worker fold and of a cold recount, over a
// single v3 file and over 4 shards, for a mixed cache at PEs 2/4/8, a
// pairs-only cache at the default PEs, and a filtered cache whose
// zone-refuted tail chunks, the clipped first one included, are
// settled without a scan.
func TestRunDeltaParallelTailMatchesSerialAndCold(t *testing.T) {
	const oldN, newN, groupRows = 7500, 8000, 256
	old := clusteredDeltaRel(t, oldN)
	grown := clusteredDeltaRel(t, newN)
	dir := t.TempDir()
	w3, err := relation.NewDiskWriterV3(filepath.Join(dir, "grown.opr"), grown.Schema(), groupRows)
	if err != nil {
		t.Fatal(err)
	}
	writeDeltaRel(t, grown, w3)
	file, err := relation.OpenDisk(filepath.Join(dir, "grown.opr"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	sw, err := relation.NewShardedWriter(filepath.Join(dir, "grown.oprs"), grown.Schema(),
		relation.ShardedWriterOptions{Shards: 4, TotalRows: newN, Format: relation.DiskFormatV3, GroupRows: groupRows})
	if err != nil {
		t.Fatal(err)
	}
	writeDeltaRel(t, grown, sw)
	shards, err := relation.OpenSharded(filepath.Join(dir, "grown.oprs"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shards.Close() })

	type schedule struct {
		name string
		req  func(gen int64) *Requirements
		pes  []int
	}
	schedules := []schedule{
		{"mixed", deltaTestReq, []int{2, 4, 8}},
		{"pairs", func(gen int64) *Requirements { return pairsOnly(deltaTestReq(gen)) }, []int{0}},
		{"filtered", func(gen int64) *Requirements { return filteredOnly(deltaTestReq(gen)) }, []int{2, 4, 8}},
	}
	for _, l := range []struct {
		name string
		rel  relation.Relation
	}{{"v3", file}, {"shards4", shards}} {
		for _, sch := range schedules {
			fold := func(pes int) (*LRUCache, *StatsSet) {
				cache := NewCache(-1)
				if _, err := Run(old, deltaTestDefaults, cache, sch.req(0)); err != nil {
					t.Fatal(err)
				}
				d := deltaTestDefaults
				d.PEs = pes
				ds, err := RunDelta(context.Background(), l.rel, d, cache, oldN, newN, 1)
				if err != nil {
					t.Fatal(err)
				}
				if ds.Resamples != 0 || ds.EntriesDropped != 0 || ds.TailScans != 1 {
					t.Fatalf("%s/%s/pes%d: delta stats %+v, want one tail scan folding everything", l.name, sch.name, pes, ds)
				}
				return cache, deltaSnapshot(t, cache, sch.req(1))
			}
			serialCache, serial := fold(1)
			control := NewCache(-1)
			control.CopyBoundsFrom(serialCache)
			if _, err := Run(l.rel, deltaTestDefaults, control, sch.req(1)); err != nil {
				t.Fatal(err)
			}
			cold := deltaSnapshot(t, control, sch.req(1))
			if !reflect.DeepEqual(serial, cold) {
				t.Fatalf("%s/%s: one-worker fold differs from a cold recount", l.name, sch.name)
			}
			for _, pes := range sch.pes {
				name := l.name + "/" + sch.name
				// The first tail chunk must start below oldN, and be zone-
				// pruned under a filter, or this case would not exercise the
				// clipping.
				req := sch.req(1)
				var groups []*GroupNeed
				for _, gk := range req.GroupOrder {
					groups = append(groups, req.Groups[gk])
				}
				var pairs []*PairNeed
				for _, pk := range req.PairOrder {
					pairs = append(pairs, req.Pairs[pk])
				}
				d := deltaTestDefaults
				d.PEs = pes
				if planPEs := scanParallelism(l.rel, d, groups, pairs); planPEs > 1 {
					cols, _, _ := execLayout(groups, pairs)
					pred := commonFilterPred(groups, pairs)
					straddles := false
					for _, c := range relation.PlanScanChunks(l.rel, planPEs, cols, pred) {
						if c.Start < oldN && oldN < c.End {
							straddles = c.Pruned == (pred != nil)
						}
					}
					if !straddles {
						t.Fatalf("%s/pes%d: no planned chunk straddles oldN (pruned iff filtered)", name, pes)
					}
				}
				_, got := fold(pes)
				if !reflect.DeepEqual(got, serial) {
					t.Errorf("%s/pes%d: parallel fold differs from the one-worker fold", name, pes)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Errorf("%s/pes%d: parallel fold differs from a cold recount", name, pes)
				}
			}
		}
	}
}

// TestRunDeltaScatterRetriesAppendedShards pins that a scattered
// session's tail scans go through the recovery policy: after an
// AppendToSharded, the fold scatters one task per appended shard over
// flaky workers, retries the failures, and folds statistics
// bit-identical to the unscattered delta.
func TestRunDeltaScatterRetriesAppendedShards(t *testing.T) {
	const oldN, newN, tailShard = 4000, 4200, 100
	manifest := filepath.Join(t.TempDir(), "rel.oprs")
	if err := relation.ConvertToSharded(deltaTestRel(t, oldN), manifest, 4, relation.DiskFormatV3); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	plain, scattered := NewCache(-1), NewCache(-1)
	for _, c := range []*LRUCache{plain, scattered} {
		if _, err := Run(sr, deltaTestDefaults, c, deltaTestReq(0)); err != nil {
			t.Fatal(err)
		}
	}

	tail := deltaTestRel(t, 0)
	appendDeltaRows(tail, oldN, newN)
	if _, err := relation.AppendToSharded(manifest, tail,
		relation.AppendOptions{RowsPerShard: tailShard, Format: relation.DiskFormatV3}); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Reopen(); err != nil {
		t.Fatal(err)
	}

	if _, err := RunDelta(context.Background(), sr, deltaTestDefaults, plain, oldN, newN, 1); err != nil {
		t.Fatal(err)
	}
	var stats ScatterStats
	d := deltaTestDefaults
	d.Scatter = ScatterConfig{
		Workers: 2,
		NewWorker: func(i int, r relation.Relation) Worker {
			w := &flakyWorker{inner: NewLocalWorker(r, false)}
			w.left.Store(1) // each worker's first attempt fails
			return w
		},
		Backoff: time.Microsecond,
		Stats:   &stats,
	}
	ds, err := RunDelta(context.Background(), sr, d, scattered, oldN, newN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.EntriesFolded != 3 {
		t.Fatalf("scattered delta folded %d entries, want 3", ds.EntriesFolded)
	}
	if want := int64((newN - oldN) / tailShard); stats.Tasks.Load() != want {
		t.Errorf("scattered delta ran %d tasks, want one per appended shard (%d)", stats.Tasks.Load(), want)
	}
	if stats.Retries.Load() == 0 {
		t.Error("flaky workers failed but no retries recorded")
	}
	req := deltaTestReq(1)
	if !reflect.DeepEqual(deltaSnapshot(t, scattered, req), deltaSnapshot(t, plain, req)) {
		t.Error("scattered delta fold differs from the unscattered one")
	}
}
