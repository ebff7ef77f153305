package bucketing

import (
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/relation"
)

// alignedMem wraps a MemoryRelation with a declared scan alignment, to
// exercise relation.AlignedSegments without a disk file.
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
	if got := relation.AlignedSegments(rel, 10, 4); !reflect.DeepEqual(got, []int{0, 2, 5, 7, 10}) {
		t.Errorf("unaligned bounds = %v", got)
	}
	// Aligned relation with enough rows for every worker: interior cuts
	// snap to multiples of the group and no segment is empty.
	got := relation.AlignedSegments(alignedMem{rel, 4}, 32, 3)
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
	if got := relation.AlignedSegments(alignedMem{rel, 8}, 10, 5); !reflect.DeepEqual(got, []int{0, 2, 4, 6, 8, 10}) {
		t.Errorf("small-relation bounds = %v, want plain proportional split", got)
	}
}

// TestSegmentBoundsShardSnapping pins segment planning across shard
// boundaries: over a sharded relation the planner's interior cuts land
// on shard or per-shard block-group boundaries (SnapSegment fixed
// points), so parallel counting workers never split a shard's group.
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
		cuts := relation.AlignedSegments(sr, sr.NumTuples(), pes)
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
