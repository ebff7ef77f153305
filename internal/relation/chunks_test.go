package relation

import (
	"path/filepath"
	"reflect"
	"testing"
)

// chunkFixtureV3 writes a clustered v3 file: n rows of V = i over
// groupRows-row groups, so zone maps partition the value space and a
// narrow range predicate prunes all but one group.
func chunkFixtureV3(t *testing.T, n, groupRows int) *DiskRelation {
	t.Helper()
	schema := Schema{{Name: "V", Kind: Numeric}, {Name: "B", Kind: Boolean}}
	path := filepath.Join(t.TempDir(), "chunks.opr")
	dw, err := NewDiskWriterV3(path, schema, groupRows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := dw.Append([]float64{float64(i)}, []bool{i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dr.Close() })
	return dr
}

// TestScanCostsV3Pruning pins the cost model: atoms are block groups,
// zone-refuted groups cost 0, and surviving groups charge their
// encoded payload bytes for the selected columns.
func TestScanCostsV3Pruning(t *testing.T) {
	n, groupRows := 5120, 512
	dr := chunkFixtureV3(t, n, groupRows)
	cols := ColumnSet{Numeric: []int{0}}
	pred := &Predicate{Ranges: []RangePredicate{{Attr: 0, Lo: 600, Hi: 700}}}
	cuts, costs := dr.ScanCosts(cols, pred)
	if len(cuts) != 11 || len(costs) != 10 {
		t.Fatalf("got %d cuts, %d costs; want 11, 10", len(cuts), len(costs))
	}
	for g, cut := range cuts {
		if want := g * groupRows; cut != want {
			t.Errorf("cut %d = %d, want %d", g, cut, want)
		}
	}
	for g, c := range costs {
		survives := g == 1 // rows [512, 1024) overlap [600, 700]
		if survives && c <= 0 {
			t.Errorf("surviving group %d priced at %d", g, c)
		}
		if !survives && c != 0 {
			t.Errorf("pruned group %d priced at %d, want 0", g, c)
		}
	}
	// Without a predicate every group costs its physical bytes.
	_, open := dr.ScanCosts(cols, nil)
	for g, c := range open {
		if c <= 0 {
			t.Errorf("unpredicated group %d priced at %d", g, c)
		}
	}
}

// TestPlanScanChunksContract pins the planner invariants: chunks are
// contiguous, non-empty, cover every row, and the plan is a
// deterministic function of its inputs. Under a selective predicate
// the pruned region collapses into wide cheap chunks while the
// surviving group stays in a chunk of its own cost class.
func TestPlanScanChunksContract(t *testing.T) {
	n := 5120
	dr := chunkFixtureV3(t, n, 512)
	cols := ColumnSet{Numeric: []int{0}}
	pred := &Predicate{Ranges: []RangePredicate{{Attr: 0, Lo: 600, Hi: 700}}}
	for _, pes := range []int{1, 2, 4, 8} {
		chunks := PlanScanChunks(dr, pes, cols, pred)
		if len(chunks) == 0 {
			t.Fatalf("pes=%d: no chunks", pes)
		}
		at := 0
		for i, c := range chunks {
			if c.Start != at || c.End <= c.Start {
				t.Fatalf("pes=%d: chunk %d = [%d,%d) after row %d: not contiguous/non-empty", pes, i, c.Start, c.End, at)
			}
			at = c.End
		}
		if at != n {
			t.Fatalf("pes=%d: chunks cover %d rows, want %d", pes, at, n)
		}
		if again := PlanScanChunks(dr, pes, cols, pred); !reflect.DeepEqual(again, chunks) {
			t.Errorf("pes=%d: plan is not deterministic", pes)
		}
	}
	// Boundaries stay storage-aligned: every interior cut is a group cut.
	for _, c := range PlanScanChunks(dr, 4, cols, pred)[:] {
		if c.End != n && c.End%512 != 0 {
			t.Errorf("chunk end %d not aligned to 512-row groups", c.End)
		}
	}
}

// TestPlanScanChunksPruned pins the scan-free shortcut: maximal runs of
// zone-refuted groups surface as dedicated Pruned chunks with cost 0,
// and the surviving region never hides inside one. With V = i and a
// range predicate on [600, 700], only group 1 of ten survives — the
// plan must be pruned[0,512) + surviving[512,1024) + pruned[1024,5120).
func TestPlanScanChunksPruned(t *testing.T) {
	n := 5120
	dr := chunkFixtureV3(t, n, 512)
	cols := ColumnSet{Numeric: []int{0}}
	pred := &Predicate{Ranges: []RangePredicate{{Attr: 0, Lo: 600, Hi: 700}}}
	chunks := PlanScanChunks(dr, 4, cols, pred)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks %+v, want 3 (pruned, surviving, pruned)", len(chunks), chunks)
	}
	for i, want := range []struct {
		start, end int
		pruned     bool
	}{{0, 512, true}, {512, 1024, false}, {1024, 5120, true}} {
		c := chunks[i]
		if c.Start != want.start || c.End != want.end || c.Pruned != want.pruned {
			t.Errorf("chunk %d = %+v, want [%d,%d) pruned=%v", i, c, want.start, want.end, want.pruned)
		}
		if c.Pruned && c.Cost != 0 {
			t.Errorf("pruned chunk %d carries cost %d, want 0", i, c.Cost)
		}
		if !c.Pruned && c.Cost <= 0 {
			t.Errorf("surviving chunk %d carries cost %d, want > 0", i, c.Cost)
		}
	}
	// Without a predicate nothing is provably empty: no Pruned chunks.
	for i, c := range PlanScanChunks(dr, 4, cols, nil) {
		if c.Pruned {
			t.Errorf("unpredicated chunk %d marked Pruned: %+v", i, c)
		}
	}
}

// TestPlanScanChunksUniformRows pins the plan for relations whose rows
// all cost the same (nil ScanCosts): a v1 (row-major) file and a memory
// relation get pes equal-row chunks [p·n/pes, (p+1)·n/pes), and the
// empty ones are dropped when n < pes.
func TestPlanScanChunksUniformRows(t *testing.T) {
	schema := Schema{{Name: "V", Kind: Numeric}}
	path := filepath.Join(t.TempDir(), "v1.opr")
	dw, err := NewDiskWriter(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	mem := MustNewMemoryRelation(schema)
	n := 1000
	for i := 0; i < n; i++ {
		if err := dw.Append([]float64{float64(i)}, nil); err != nil {
			t.Fatal(err)
		}
		mem.MustAppend([]float64{float64(i)}, nil)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()
	cols := ColumnSet{Numeric: []int{0}}
	for _, rel := range []Relation{dr, mem} {
		if cuts, costs := rel.ScanCosts(cols, nil); cuts != nil || costs != nil {
			t.Fatalf("%T prices atoms %v %v, want nil", rel, cuts, costs)
		}
		want := []ScanChunk{{0, 250, 250, false}, {250, 500, 250, false}, {500, 750, 250, false}, {750, 1000, 250, false}}
		if got := PlanScanChunks(rel, 4, cols, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: chunks %v, want %v", rel, got, want)
		}
		want = []ScanChunk{{0, 333, 333, false}, {333, 666, 333, false}, {666, 1000, 334, false}}
		if got := PlanScanChunks(rel, 3, cols, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: chunks %v, want %v", rel, got, want)
		}
	}
	small := MustNewMemoryRelation(schema)
	for i := 0; i < 3; i++ {
		small.MustAppend([]float64{float64(i)}, nil)
	}
	want := []ScanChunk{{0, 1, 1, false}, {1, 2, 1, false}, {2, 3, 1, false}}
	if got := PlanScanChunks(small, 5, cols, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("3 rows at pes 5: chunks %v, want %v", got, want)
	}
}

// TestPlanScanChunksShardSnapping pins chunk planning across shard
// boundaries: over a sharded v2 relation every chunk boundary lands on
// a shard or per-shard block-group boundary (a SnapSegment fixed
// point), so counting workers never split a shard's group.
func TestPlanScanChunksShardSnapping(t *testing.T) {
	schema := Schema{{Name: "X", Kind: Numeric}}
	path := filepath.Join(t.TempDir(), "seg.oprs")
	sw, err := NewShardedWriter(path, schema, ShardedWriterOptions{Shards: 3, TotalRows: 9000, GroupRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9000; i++ {
		if err := sw.Append([]float64{float64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	for _, pes := range []int{2, 4, 8} {
		at := 0
		for _, c := range PlanScanChunks(sr, pes, ColumnSet{Numeric: []int{0}}, nil) {
			if c.Start != at || c.End <= c.Start {
				t.Fatalf("pes=%d: chunk %+v does not continue at %d", pes, c, at)
			}
			if snapped := sr.SnapSegment(c.End); snapped != c.End {
				t.Errorf("pes=%d: chunk end %d splits a shard block group (snaps to %d)", pes, c.End, snapped)
			}
			at = c.End
		}
		if at != 9000 {
			t.Fatalf("pes=%d: chunks cover %d of 9000 rows", pes, at)
		}
	}
}

// TestScanCostsShardedV1 pins the atoms of a v1 shard, which prices
// nothing itself: DefaultGroupRows-row atoms priced by their row count,
// with every shard boundary a cut.
func TestScanCostsShardedV1(t *testing.T) {
	rows := []int{DefaultGroupRows + 100, 300}
	manifest, _ := writeShardedFixture(t, 5, rows, []int{DiskFormatV1, DiskFormatV2}, 128)
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	cuts, costs := sr.ScanCosts(ColumnSet{Numeric: []int{0}}, nil)
	wantCuts := []int{0, DefaultGroupRows, rows[0], rows[0] + 128, rows[0] + 256, rows[0] + 300}
	wantCosts := []int64{DefaultGroupRows, 100, 128, 128, 44}
	if !reflect.DeepEqual(cuts, wantCuts) || !reflect.DeepEqual(costs, wantCosts) {
		t.Errorf("ScanCosts = %v %v, want %v %v", cuts, costs, wantCuts, wantCosts)
	}
}

// TestScanCostsSharded pins the sharded concatenation: per-shard atoms
// appear in global row order with translated cuts, and pruning carries
// through each shard's own zone maps.
func TestScanCostsSharded(t *testing.T) {
	dr := chunkFixtureV3(t, 4096, 256)
	manifest := filepath.Join(t.TempDir(), "sharded.oprs")
	if err := ConvertToSharded(dr, manifest, 4, DiskFormatV3); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	cols := ColumnSet{Numeric: []int{0}}
	pred := &Predicate{Ranges: []RangePredicate{{Attr: 0, Lo: 0, Hi: 100}}}
	cuts, costs := sr.ScanCosts(cols, pred)
	if cuts == nil {
		t.Fatal("sharded v3 relation declined to price its atoms")
	}
	if cuts[0] != 0 || cuts[len(cuts)-1] != sr.NumTuples() {
		t.Fatalf("cuts span [%d,%d], want [0,%d]", cuts[0], cuts[len(cuts)-1], sr.NumTuples())
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly increasing at %d: %v", i, cuts[i-1:i+1])
		}
	}
	var priced int
	for _, c := range costs {
		if c > 0 {
			priced++
		}
	}
	if priced == 0 || priced == len(costs) {
		t.Errorf("%d of %d atoms priced nonzero; the narrow predicate should prune most but not all", priced, len(costs))
	}
	// The planner accepts the sharded model end to end.
	chunks := PlanScanChunks(sr, 4, cols, pred)
	at := 0
	for _, c := range chunks {
		if c.Start != at {
			t.Fatalf("sharded chunks not contiguous at %d", at)
		}
		at = c.End
	}
	if at != sr.NumTuples() {
		t.Fatalf("sharded chunks cover %d of %d rows", at, sr.NumTuples())
	}
}
