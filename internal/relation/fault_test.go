package relation

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// collectScan drains a full scan of the Balance and CardLoan columns.
func collectScan(rel Relation) ([]float64, []bool, error) {
	var nums []float64
	var bools []bool
	err := rel.Scan(ColumnSet{Numeric: []int{0}, Bool: []int{2}}, func(b *Batch) error {
		nums = append(nums, b.Numeric[0][:b.Len]...)
		bools = append(bools, b.Bool[0][:b.Len]...)
		return nil
	})
	return nums, bools, err
}

// TestFaultSelectionDeterministic pins the seed-driven selection: two
// wrappers with equal configs fail exactly the same scan ordinals, and
// a different seed draws a different (non-degenerate) pattern.
func TestFaultSelectionDeterministic(t *testing.T) {
	_, mem := writeTestFile(t, 100, 1)
	pattern := func(seed int64) []bool {
		fr := NewFaultRelation(mem, FaultConfig{Seed: seed, FailProb: 0.4})
		var fails []bool
		for i := 0; i < 40; i++ {
			_, _, err := collectScan(fr)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("scan %d: unexpected error kind: %v", i, err)
			}
			fails = append(fails, err != nil)
		}
		return fails
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at scan %d: %v vs %v", i+1, a, b)
		}
	}
	nA := 0
	for _, f := range a {
		if f {
			nA++
		}
	}
	if nA == 0 || nA == len(a) {
		t.Fatalf("degenerate selection at FailProb=0.4: %d/%d scans failed", nA, len(a))
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds drew identical failure patterns")
	}
}

// TestFaultFailScansAndEvery pins the explicit selectors: listed
// ordinals and every-Nth ordinals fail, everything else passes.
func TestFaultFailScansAndEvery(t *testing.T) {
	_, mem := writeTestFile(t, 50, 2)
	fr := NewFaultRelation(mem, FaultConfig{FailScans: []int{2}, FailEvery: 5})
	wantFail := map[int]bool{2: true, 5: true, 10: true}
	for ord := 1; ord <= 10; ord++ {
		_, _, err := collectScan(fr)
		if wantFail[ord] && !errors.Is(err, ErrInjected) {
			t.Errorf("scan %d: want injected fault, got %v", ord, err)
		}
		if !wantFail[ord] && err != nil {
			t.Errorf("scan %d: unselected scan failed: %v", ord, err)
		}
	}
	if got := fr.Scans(); got != 10 {
		t.Errorf("Scans() = %d, want 10", got)
	}
	if got := fr.Injected(); got != 3 {
		t.Errorf("Injected() = %d, want 3", got)
	}
}

// TestFaultMidScanAtRow pins the row-accurate mid-stream cut: a
// selected scan delivers exactly FailAfterRows rows, then errors.
func TestFaultMidScanAtRow(t *testing.T) {
	n := DefaultBatchSize + 500
	_, mem := writeTestFile(t, n, 3)
	failAt := DefaultBatchSize + 123 // inside the second batch
	fr := NewFaultRelation(mem, FaultConfig{FailEvery: 1, FailAfterRows: failAt})
	nums, _, err := collectScan(fr)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if len(nums) != failAt {
		t.Fatalf("delivered %d rows before the fault, want %d", len(nums), failAt)
	}
	// And the delivered prefix is the true data, not garbage.
	want, _ := mem.NumericColumn(0)
	for i, v := range nums {
		if v != want[i] {
			t.Fatalf("row %d corrupted: got %g want %g", i, v, want[i])
		}
	}
}

// TestFaultBeforeFirstBatch pins FailAfterRows=0: the failure mimics an
// open/header error, before any rows flow.
func TestFaultBeforeFirstBatch(t *testing.T) {
	_, mem := writeTestFile(t, 100, 4)
	fr := NewFaultRelation(mem, FaultConfig{FailEvery: 1})
	nums, _, err := collectScan(fr)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if len(nums) != 0 {
		t.Fatalf("fail-before-first-batch delivered %d rows", len(nums))
	}
}

// TestFaultAfterStreamEnd pins finish(): a selected scan whose fault
// row lies beyond the data still fails — selection is never silently
// forgiven by a short relation.
func TestFaultAfterStreamEnd(t *testing.T) {
	_, mem := writeTestFile(t, 100, 5)
	fr := NewFaultRelation(mem, FaultConfig{FailEvery: 1, FailAfterRows: 10_000})
	if _, _, err := collectScan(fr); !errors.Is(err, ErrInjected) {
		t.Fatalf("fault row beyond stream end was forgiven: %v", err)
	}
}

// TestFaultShortBatchesFidelity pins the re-chunker: with ShortBatches
// set, every delivered batch respects the cap and the concatenated
// stream is byte-identical to the unwrapped scan — over both the memory
// backend and the v2 prefetcher (whose batches the wrapper re-slices).
func TestFaultShortBatchesFidelity(t *testing.T) {
	n := 2*DefaultBatchSize + 77
	path, mem := writeTestFile(t, n, 6)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()
	wantNums, _ := mem.NumericColumn(0)
	wantBools, _ := mem.BoolColumn(2)
	for _, inner := range []Relation{mem, Relation(dr)} {
		fr := NewFaultRelation(inner, FaultConfig{ShortBatches: 17})
		var nums []float64
		var bools []bool
		err := fr.Scan(ColumnSet{Numeric: []int{0}, Bool: []int{2}}, func(b *Batch) error {
			if b.Len > 17 {
				t.Fatalf("%T: batch of %d rows exceeds ShortBatches=17", inner, b.Len)
			}
			nums = append(nums, b.Numeric[0][:b.Len]...)
			bools = append(bools, b.Bool[0][:b.Len]...)
			return nil
		})
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		if len(nums) != n {
			t.Fatalf("%T: re-chunked scan delivered %d rows, want %d", inner, len(nums), n)
		}
		for i := range nums {
			if nums[i] != wantNums[i] || bools[i] != wantBools[i] {
				t.Fatalf("%T: re-chunked stream diverges at row %d", inner, i)
			}
		}
	}
}

// TestFaultMaxFaultsBudget pins the transient-fault budget: exactly
// MaxFaults failures are injected, then the wrapper goes permanently
// healthy — the property retry loops rely on.
func TestFaultMaxFaultsBudget(t *testing.T) {
	_, mem := writeTestFile(t, 50, 7)
	fr := NewFaultRelation(mem, FaultConfig{FailEvery: 1, MaxFaults: 2})
	for ord := 1; ord <= 6; ord++ {
		_, _, err := collectScan(fr)
		if ord <= 2 && !errors.Is(err, ErrInjected) {
			t.Errorf("scan %d: want injected fault, got %v", ord, err)
		}
		if ord > 2 && err != nil {
			t.Errorf("scan %d: budget exhausted but still failing: %v", ord, err)
		}
	}
	if got := fr.Injected(); got != 2 {
		t.Errorf("Injected() = %d, want 2", got)
	}
}

// TestFaultStallOnly pins the slow-worker mode: a selected scan stalls,
// then completes with the full correct stream and no error.
func TestFaultStallOnly(t *testing.T) {
	_, mem := writeTestFile(t, 200, 8)
	stall := 30 * time.Millisecond
	fr := NewFaultRelation(mem, FaultConfig{FailEvery: 1, Stall: stall, StallOnly: true})
	start := time.Now()
	nums, _, err := collectScan(fr)
	if err != nil {
		t.Fatalf("StallOnly scan errored: %v", err)
	}
	if len(nums) != 200 {
		t.Fatalf("StallOnly scan delivered %d rows, want 200", len(nums))
	}
	if d := time.Since(start); d < stall {
		t.Errorf("scan finished in %v, want at least the %v stall", d, stall)
	}
}

// TestFaultClose pins Close injection, composed over a backend with a
// real Close (the wrapped Close still runs first).
func TestFaultClose(t *testing.T) {
	path, _ := writeTestFile(t, 50, 9)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFaultRelation(dr, FaultConfig{FailClose: true})
	if err := fr.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected close error, got %v", err)
	}
}

// TestFaultRangeAndPrunedScans pins fault delivery through the optional
// scan surfaces, composed over the sharded backend — the injected error
// must tear down each shard's read-ahead pipeline cleanly and surface
// with its identity intact.
func TestFaultRangeAndPrunedScans(t *testing.T) {
	manifest, mem := writeShardedFixture(t, 10, []int{400, 300, 300}, []int{DiskFormatV1, DiskFormatV2, DiskFormatV2}, 128)
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	for name, scan := range map[string]func(fr *FaultRelation, fn func(*Batch) error) error{
		"range": func(fr *FaultRelation, fn func(*Batch) error) error {
			return fr.ScanRange(100, 900, ColumnSet{Numeric: []int{0}}, fn)
		},
		"pruned": func(fr *FaultRelation, fn func(*Batch) error) error {
			return fr.ScanRangePruned(100, 900, ColumnSet{Numeric: []int{0}}, nil,
				func(rows int) error { return nil }, fn)
		},
	} {
		// Healthy wrapped scan first: delegation must be lossless.
		fr := NewFaultRelation(sr, FaultConfig{})
		var got []float64
		if err := scan(fr, func(b *Batch) error {
			got = append(got, b.Numeric[0][:b.Len]...)
			return nil
		}); err != nil {
			t.Fatalf("%s: healthy wrapped scan: %v", name, err)
		}
		want, _ := mem.NumericColumn(0)
		want = want[100:900]
		if len(got) != len(want) {
			t.Fatalf("%s: wrapped scan delivered %d rows, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: wrapped scan diverges at row %d", name, i)
			}
		}
		// Now a mid-stream fault crossing a shard boundary.
		fr = NewFaultRelation(sr, FaultConfig{FailEvery: 1, FailAfterRows: 450})
		rows := 0
		err := scan(fr, func(b *Batch) error {
			rows += b.Len
			return nil
		})
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: want injected fault, got %v", name, err)
		}
		if rows != 450 {
			t.Fatalf("%s: delivered %d rows before the fault, want 450", name, rows)
		}
	}
}

// TestFaultPointReadsNeverFaulted pins the sampling-determinism rule:
// point reads pass through untouched even under FailEvery=1, so a
// faulted run's bucket boundaries match the healthy run's.
func TestFaultPointReadsNeverFaulted(t *testing.T) {
	path, mem := writeTestFile(t, 300, 11)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()
	fr := NewFaultRelation(dr, FaultConfig{FailEvery: 1})
	rows := []int{0, 17, 123, 299}
	out := make([]float64, len(rows))
	if err := fr.ReadNumericPoints(0, rows, out); err != nil {
		t.Fatalf("point read faulted: %v", err)
	}
	want, _ := mem.NumericColumn(0)
	for i, r := range rows {
		if out[i] != want[r] {
			t.Errorf("point read row %d: got %g want %g", r, out[i], want[r])
		}
	}
}

// TestFaultDelegatesHints pins the pass-through of the planner's
// storage hints: scan costs and byte accounting reach the wrapped
// backend, and byte accounting degrades to 0 over plain memory.
func TestFaultDelegatesHints(t *testing.T) {
	manifest, _ := writeShardedFixture(t, 12, []int{200, 300}, []int{DiskFormatV2, DiskFormatV2}, 128)
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	fr := NewFaultRelation(sr, FaultConfig{})
	cols := ColumnSet{Numeric: []int{0}}
	gotCuts, gotCosts := fr.ScanCosts(cols, nil)
	wantCuts, wantCosts := sr.ScanCosts(cols, nil)
	if !reflect.DeepEqual(gotCuts, wantCuts) || !reflect.DeepEqual(gotCosts, wantCosts) {
		t.Errorf("ScanCosts = %v %v, want %v %v", gotCuts, gotCosts, wantCuts, wantCosts)
	}
	if !reflect.DeepEqual(PlanScanChunks(fr, 4, cols, nil), PlanScanChunks(sr, 4, cols, nil)) {
		t.Error("a faulted relation plans other chunks than the relation it wraps")
	}
	if _, _, err := collectScan(fr); err != nil {
		t.Fatal(err)
	}
	if fr.BytesRead() == 0 {
		t.Error("BytesRead not delegated to the sharded backend")
	}
	fr.ResetBytesRead()
	if fr.BytesRead() != 0 {
		t.Error("ResetBytesRead not delegated")
	}

	_, mem := writeTestFile(t, 50, 13)
	if NewFaultRelation(mem, FaultConfig{}).BytesRead() != 0 {
		t.Error("BytesRead over a backend without byte accounting is not 0")
	}
}
