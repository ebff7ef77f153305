package plan

import (
	"context"
	"math"
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// deltaTestRel builds a 3-column relation (numeric X, numeric Y, bool
// B) with n deterministic rows, including NaN drivers.
func deltaTestRel(t *testing.T, n int) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Boolean},
	})
	appendDeltaRows(rel, 0, n)
	return rel
}

// appendDeltaRows appends rows [start, end) of the deterministic
// sequence, so a tail append continues exactly where the prefix ended.
func appendDeltaRows(rel *relation.MemoryRelation, start, end int) {
	for i := start; i < end; i++ {
		x := float64((i * 37) % 1000)
		if i%97 == 0 {
			x = math.NaN()
		}
		y := float64((i * 53) % 500)
		rel.MustAppend([]float64{x, y}, []bool{(i*31)%3 == 0})
	}
}

// deltaTestReq is the mixed requirement set the delta tests cache:
// an unfiltered extreme-tracking group, a filtered group, and a pair
// grid.
func deltaTestReq(gen int64) *Requirements {
	obj := bucketing.BoolCond{Attr: 2, Want: true}
	gkPlain := GroupKey{Driver: 0, M: 10}
	gkFilt := GroupKey{Driver: 1, M: 10, Filter: "2=1"}
	pk := PairKey{A: 0, B: 1, Side: 8, ObjAttr: 2, ObjWant: true}
	return &Requirements{
		Groups: map[GroupKey]*GroupNeed{
			gkPlain: {Key: gkPlain, Driver: 0,
				Bools: []bucketing.BoolCond{obj}, TrackExtremes: true},
			gkFilt: {Key: gkFilt, Driver: 1,
				Filter: []bucketing.BoolCond{obj},
				Bools:  []bucketing.BoolCond{obj}},
		},
		GroupOrder: []GroupKey{gkPlain, gkFilt},
		Pairs: map[PairKey]*PairNeed{
			pk: {Key: pk, A: 0, B: 1, Side: 8, Obj: obj},
		},
		PairOrder: []PairKey{pk},
		Gen:       gen,
	}
}

var deltaTestDefaults = Defaults{Buckets: 10, SampleFactor: 40, Seed: 7}

// TestRunDeltaFoldsMatchColdRecount pins the heart of the incremental
// path: appending a within-budget tail and folding equals recounting
// the grown relation from scratch over the SAME boundaries, field for
// field.
func TestRunDeltaFoldsMatchColdRecount(t *testing.T) {
	const oldN, newN = 2000, 2100
	rel := deltaTestRel(t, oldN)
	cache := NewCache(-1)
	d := deltaTestDefaults
	if _, err := Run(rel, d, cache, deltaTestReq(0)); err != nil {
		t.Fatal(err)
	}

	appendDeltaRows(rel, oldN, newN)
	ds, err := RunDelta(context.Background(), rel, d, cache, oldN, newN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Resamples != 0 {
		t.Fatalf("within-budget append re-sampled %d boundary sets", ds.Resamples)
	}
	if ds.EntriesFolded != 3 || ds.EntriesDropped != 0 {
		t.Fatalf("folded %d dropped %d, want 3 folded 0 dropped", ds.EntriesFolded, ds.EntriesDropped)
	}
	if ds.TailScans != 1 || ds.RowsScanned != newN-oldN {
		t.Fatalf("tail scan stats %d/%d, want 1/%d", ds.TailScans, ds.RowsScanned, newN-oldN)
	}

	// Cold control: fresh cache pinned to the SAME boundaries, counting
	// the full grown relation in one scan.
	control := NewCache(-1)
	control.CopyBoundsFrom(cache)
	req := deltaTestReq(1)
	if _, err := Run(rel, d, control, req); err != nil {
		t.Fatal(err)
	}
	for _, gk := range req.GroupOrder {
		folded, ok := cache.Get1D(gk)
		if !ok {
			t.Fatalf("group %+v missing after delta", gk)
		}
		cold, ok := control.Get1D(gk)
		if !ok {
			t.Fatalf("group %+v missing from control", gk)
		}
		if !reflect.DeepEqual(folded, cold) {
			t.Errorf("group %+v: folded statistic differs from cold recount:\nfolded: %+v\ncold:   %+v", gk, folded, cold)
		}
	}
	for _, pk := range req.PairOrder {
		folded, ok := cache.Get2D(pk)
		if !ok {
			t.Fatalf("pair %+v missing after delta", pk)
		}
		cold, ok := control.Get2D(pk)
		if !ok {
			t.Fatalf("pair %+v missing from control", pk)
		}
		fu, fv, _ := folded.Grid.Flat()
		cu, cv, _ := cold.Grid.Flat()
		if !reflect.DeepEqual(fu, cu) || !reflect.DeepEqual(fv, cv) {
			t.Errorf("pair %+v: folded grid differs from cold recount", pk)
		}
		if folded.N != cold.N || folded.Hits != cold.Hits {
			t.Errorf("pair %+v: N/Hits %d/%d vs cold %d/%d", pk, folded.N, folded.Hits, cold.N, cold.Hits)
		}
		if !reflect.DeepEqual(folded.MinA, cold.MinA) || !reflect.DeepEqual(folded.MaxA, cold.MaxA) ||
			!reflect.DeepEqual(folded.MinB, cold.MinB) || !reflect.DeepEqual(folded.MaxB, cold.MaxB) {
			t.Errorf("pair %+v: folded extremes differ from cold recount", pk)
		}
	}

	// The folded entries are current-generation: a batch at gen 1 is
	// fully covered and scans nothing.
	counting := &relation.CountingRelation{R: rel}
	if _, err := Run(counting, d, cache, deltaTestReq(1)); err != nil {
		t.Fatal(err)
	}
	if counting.Scans != 0 {
		t.Errorf("post-delta batch ran %d scans, want 0", counting.Scans)
	}
}

// TestRunDeltaScansTailOnly pins the O(Δ) claim mechanically: the
// refresh must never read a row below oldN.
func TestRunDeltaScansTailOnly(t *testing.T) {
	const oldN, newN = 2000, 2050
	rel := deltaTestRel(t, oldN)
	cache := NewCache(-1)
	d := deltaTestDefaults
	if _, err := Run(rel, d, cache, deltaTestReq(0)); err != nil {
		t.Fatal(err)
	}
	appendDeltaRows(rel, oldN, newN)
	counting := &relation.CountingRelation{R: rel}
	ds, err := RunDelta(context.Background(), counting, d, cache, oldN, newN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.EntriesFolded != 3 {
		t.Fatalf("folded %d entries, want 3", ds.EntriesFolded)
	}
	if counting.Scans == 0 {
		t.Fatalf("no scans recorded")
	}
	if min := counting.MinScanned(); min < oldN {
		t.Errorf("delta refresh read row %d, below the old count %d: not O(Δ)", min, oldN)
	}
	if counting.Rows != int64(newN-oldN) {
		t.Errorf("delta refresh delivered %d rows, want exactly the %d-row tail", counting.Rows, newN-oldN)
	}
}

// TestRunDeltaResamplesOverBudget pins the Section 3.4 budget: a large
// append drops every boundary set it pushed over budget together with
// the entries counted over them, and the next batch re-samples them
// over the full relation — bit-identical to a cold session's cuts.
func TestRunDeltaResamplesOverBudget(t *testing.T) {
	const oldN, newN = 500, 1000
	rel := deltaTestRel(t, oldN)
	cache := NewCache(-1)
	d := deltaTestDefaults
	if _, err := Run(rel, d, cache, deltaTestReq(0)); err != nil {
		t.Fatal(err)
	}
	appendDeltaRows(rel, oldN, newN)
	ds, err := RunDelta(context.Background(), rel, d, cache, oldN, newN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Resamples != 4 || ds.EntriesFolded != 0 || ds.EntriesDropped != 3 {
		t.Fatalf("resamples %d folded %d dropped %d, want 4 resamples, 0 folded, 3 dropped (budget %.3f)",
			ds.Resamples, ds.EntriesFolded, ds.EntriesDropped, resampleBudget(d.SampleFactor))
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries after the trip, want 0", st.Entries)
	}
	// The next batch samples what the refresh dropped, with the same
	// seed and per-attribute RNG streams as a cold session.
	if _, err := Run(rel, d, cache, deltaTestReq(1)); err != nil {
		t.Fatal(err)
	}
	control := NewCache(-1)
	if _, err := Run(rel, d, control, deltaTestReq(1)); err != nil {
		t.Fatal(err)
	}
	for _, bk := range []BoundKey{{Attr: 0, M: 10}, {Attr: 1, M: 10}, {Attr: 0, M: 8}, {Attr: 1, M: 8}} {
		got, ok := cache.GetBounds(bk)
		if !ok {
			t.Fatalf("boundaries %+v missing after the next batch", bk)
		}
		want, ok := control.GetBounds(bk)
		if !ok {
			t.Fatalf("boundaries %+v missing from control", bk)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("re-sampled boundaries %+v differ from a cold session's", bk)
		}
	}
}

// TestRunDeltaRepeatedAppendsAccumulate pins that the budget fraction
// is measured against each boundary set's SAMPLE-TIME row count, so
// many small appends eventually trigger the re-sample a single
// same-size append would.
func TestRunDeltaRepeatedAppendsAccumulate(t *testing.T) {
	const oldN = 1000
	rel := deltaTestRel(t, oldN)
	cache := NewCache(-1)
	d := deltaTestDefaults
	if _, err := Run(rel, d, cache, deltaTestReq(0)); err != nil {
		t.Fatal(err)
	}
	n := oldN
	var gen int64
	resampled := false
	for i := 0; i < 20; i++ {
		next := n + 10
		appendDeltaRows(rel, n, next)
		gen++
		ds, err := RunDelta(context.Background(), rel, d, cache, n, next, gen)
		if err != nil {
			t.Fatal(err)
		}
		n = next
		if ds.Resamples > 0 {
			resampled = true
			frac := float64(n-oldN) / float64(n)
			if frac <= resampleBudget(d.SampleFactor) {
				t.Errorf("re-sampled at accumulated fraction %.3f, below budget %.3f", frac, resampleBudget(d.SampleFactor))
			}
			break
		}
	}
	// 200 appended over 1200 = 0.167 > 0.079: must have tripped.
	if !resampled {
		t.Errorf("20 small appends never re-sampled despite accumulated fraction %.3f > budget %.3f",
			float64(n-oldN)/float64(n), resampleBudget(d.SampleFactor))
	}
}

// TestRunDeltaInvalidatesOnShrink pins the shrink path: a relation
// with fewer rows than the cache was built over was rewritten in place,
// so the refresh drops the whole cache, and scans nothing, instead of
// serving stale statistics.
func TestRunDeltaInvalidatesOnShrink(t *testing.T) {
	const oldN, newN = 510, 500
	cache := NewCache(-1)
	d := deltaTestDefaults
	if _, err := Run(deltaTestRel(t, oldN), d, cache, deltaTestReq(0)); err != nil {
		t.Fatal(err)
	}
	counting := &relation.CountingRelation{R: deltaTestRel(t, newN)}
	ds, err := RunDelta(context.Background(), counting, d, cache, oldN, newN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Invalidated {
		t.Fatalf("a shrunk relation's refresh did not invalidate")
	}
	if ds.EntriesDropped != 3 {
		t.Errorf("shrink reported %d entries dropped, want the 3 groups and grids", ds.EntriesDropped)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("cache still holds %d entries after the shrink", st.Entries)
	}
	if counting.Scans != 0 || counting.PointReads != 0 {
		t.Errorf("shrink refresh issued %d scans and %d point reads, want none", counting.Scans, counting.PointReads)
	}
}

// TestStaleGenerationPartialNeverMerges pins the generation guard end
// to end: a statistic computed at an old generation can neither merge
// into nor replace an entry the delta executor already advanced, and a
// stale-generation batch never treats the advanced entry as covering.
func TestStaleGenerationPartialNeverMerges(t *testing.T) {
	cache := NewCache(-1)
	gk := GroupKey{Driver: 0, M: 4}
	mk := func(gen int64, u0 int) *Stats1D {
		return &Stats1D{M: 4, N: u0, Total: u0, Gen: gen,
			U: []int{u0, 0, 0, 0},
			V: map[bucketing.BoolCond][]int{}, Sum: map[int][]float64{}}
	}
	cur := cache.Put1D(gk, mk(2, 100))
	if got := cache.Put1D(gk, mk(1, 7)); got != cur {
		t.Errorf("stale partial replaced or merged into the advanced entry")
	}
	if have, _ := cache.Get1D(gk); have.Gen != 2 || have.U[0] != 100 {
		t.Errorf("cache entry corrupted by stale put: %+v", have)
	}
	if got := cache.Put1D(gk, mk(3, 101)); got.Gen != 3 || got.U[0] != 101 {
		t.Errorf("newer-generation statistic did not replace: %+v", got)
	}
}
