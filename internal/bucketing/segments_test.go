package bucketing

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/relation"
)

// alignedMem wraps a MemoryRelation with a declared scan alignment, to
// exercise segmentBounds without a disk file.
type alignedMem struct {
	*relation.MemoryRelation
	align int
}

func (a alignedMem) ScanAlignment() int { return a.align }

func TestSegmentBoundsAlignment(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{{Name: "X", Kind: relation.Numeric}})
	for i := 0; i < 10; i++ {
		rel.MustAppend([]float64{float64(i)}, nil)
	}
	// Unaligned relation: plain proportional split.
	if got := segmentBounds(rel, 10, 4); !reflect.DeepEqual(got, []int{0, 2, 5, 7, 10}) {
		t.Errorf("unaligned bounds = %v", got)
	}
	// Aligned relation with enough rows for every worker: interior cuts
	// snap to multiples of the group and no segment is empty.
	got := segmentBounds(alignedMem{rel, 4}, 32, 3)
	if got[0] != 0 || got[len(got)-1] != 32 {
		t.Fatalf("bounds %v must span [0, 32]", got)
	}
	for p := 1; p < len(got)-1; p++ {
		if got[p]%4 != 0 {
			t.Errorf("interior cut %d not aligned to 4 in %v", got[p], got)
		}
	}
	for p := 1; p < len(got); p++ {
		if got[p] <= got[p-1] {
			t.Errorf("bounds %v collapsed a segment despite n >= pes*align", got)
		}
	}
	// Relation smaller than pes*align: alignment must be abandoned
	// rather than collapsing parallelism — the plain proportional split
	// keeps every worker busy.
	if got := segmentBounds(alignedMem{rel, 8}, 10, 5); !reflect.DeepEqual(got, []int{0, 2, 4, 6, 8, 10}) {
		t.Errorf("small-relation bounds = %v, want plain proportional split", got)
	}
}

// TestSegmentBoundsShardSnapping pins segment planning across shard
// boundaries: over a sharded relation the planner's interior cuts land
// on shard or per-shard block-group boundaries (SnapSegment fixed
// points), so ParallelCount workers never split a shard's group.
func TestSegmentBoundsShardSnapping(t *testing.T) {
	schema := relation.Schema{{Name: "X", Kind: relation.Numeric}}
	path := filepath.Join(t.TempDir(), "seg.oprs")
	sw, err := relation.NewShardedWriter(path, schema, relation.ShardedWriterOptions{Shards: 3, TotalRows: 9000, GroupRows: 512})
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
	sr, err := relation.OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	for _, pes := range []int{2, 4, 8} {
		cuts := segmentBounds(sr, sr.NumTuples(), pes)
		if cuts[0] != 0 || cuts[pes] != 9000 {
			t.Fatalf("pes=%d: cuts %v must span [0, 9000]", pes, cuts)
		}
		for p := 1; p < pes; p++ {
			if cuts[p] < cuts[p-1] {
				t.Fatalf("pes=%d: cuts %v not monotone", pes, cuts)
			}
			if snapped := sr.SnapSegment(cuts[p]); snapped != cuts[p] {
				t.Errorf("pes=%d: interior cut %d splits a shard block group (snaps to %d)", pes, cuts[p], snapped)
			}
		}
	}
}

// parallelMatchesSequential checks that ParallelCount over rel equals
// the sequential Count for each driver at every listed worker count,
// with two drivers' boundaries drawn by one fused sampling pass.
func parallelMatchesSequential(t *testing.T, rel relation.RangeScanner, pesList []int) {
	t.Helper()
	drivers := []int{0, 1}
	rngs := []*rand.Rand{rand.New(rand.NewSource(5)), rand.New(rand.NewSource(6))}
	bounds, err := MultiSampledBoundaries(rel, drivers, 50, 40, 0, rngs)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Bools: []BoolCond{{Attr: 2, Want: true}}, TrackExtremes: true}
	for d, driver := range drivers {
		seq, err := Count(rel, driver, bounds[d], opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range pesList {
			par, err := ParallelCount(rel, driver, bounds[d], opts, pes)
			if err != nil {
				t.Fatal(err)
			}
			if par.N != seq.N || par.Total != seq.Total {
				t.Fatalf("pes=%d driver %d: N/Total %d/%d, want %d/%d", pes, driver, par.N, par.Total, seq.N, seq.Total)
			}
			if !reflect.DeepEqual(par.U, seq.U) || !reflect.DeepEqual(par.V, seq.V) {
				t.Fatalf("pes=%d driver %d: per-bucket counts differ from sequential scan", pes, driver)
			}
			if !reflect.DeepEqual(par.MinVal, seq.MinVal) || !reflect.DeepEqual(par.MaxVal, seq.MaxVal) {
				t.Fatalf("pes=%d driver %d: extremes differ from sequential scan", pes, driver)
			}
		}
	}
}

// TestParallelMultiCountSharded pins that the segmented parallel scan
// over a SHARDED relation produces counts identical to the sequential
// scan over the same rows — the invariant that lets ParallelCount run
// unmodified on the sharded backend. (The name is kept from the
// multi-driver counting API this test first pinned.)
func TestParallelMultiCountSharded(t *testing.T) {
	schema := relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	}
	path := filepath.Join(t.TempDir(), "par.oprs")
	sw, err := relation.NewShardedWriter(path, schema, relation.ShardedWriterOptions{Shards: 4, TotalRows: 12345, GroupRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12345; i++ {
		if err := sw.Append([]float64{rng.NormFloat64(), rng.Float64() * 100}, []bool{rng.Intn(3) == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	parallelMatchesSequential(t, rel, []int{2, 5, 16})
}

// TestParallelMultiCountV2Aligned pins that the group-aligned parallel
// scan over a v2 disk relation produces counts identical to the
// sequential scan.
func TestParallelMultiCountV2Aligned(t *testing.T) {
	schema := relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	}
	path := filepath.Join(t.TempDir(), "par_v2.opr")
	dw, err := relation.NewDiskWriterV2(path, schema, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := 12345 // 12 full groups + a 345-row tail
	for i := 0; i < n; i++ {
		if err := dw.Append([]float64{rng.NormFloat64(), rng.Float64() * 100}, []bool{rng.Intn(3) == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	parallelMatchesSequential(t, rel, []int{2, 3, 7, 16})
}
