package relation

import (
	"strings"
	"testing"
)

// TestScanRangeBoundsUnified pins identical ScanRange bounds semantics
// across every backend — MemoryRelation, DiskRelation v1 and v2, and
// ShardedRelation — so the miner's segment planners see one contract
// everywhere: negative start, start > end, and end > NumTuples() are
// errors mentioning the offending range; start == end (anywhere in
// [0, NumTuples()], including both extremes) scans nothing and
// succeeds; valid ranges deliver exactly end-start rows.
func TestScanRangeBoundsUnified(t *testing.T) {
	const n = 250
	v1Path, mem := writeTestFile(t, n, 31)
	v2Path, _ := writeTestFileV2(t, n, 31, 64)
	shPath, _ := writeShardedFixture(t, 31, []int{100, 100, 50}, []int{DiskFormatV1, DiskFormatV2, DiskFormatV2}, 64)

	v1, err := OpenDisk(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := OpenDisk(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := OpenSharded(shPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	backends := []struct {
		name string
		rel  RangeScanner
	}{
		{"memory", mem},
		{"disk-v1", v1},
		{"disk-v2", v2},
		{"sharded", sh},
	}
	cases := []struct {
		name       string
		start, end int
		wantErr    bool
	}{
		{"full", 0, n, false},
		{"interior", 40, 180, false},
		{"empty-at-zero", 0, 0, false},
		{"empty-interior", 100, 100, false},
		{"empty-at-n", n, n, false},
		{"negative-start", -1, 10, true},
		{"end-past-n", 0, n + 1, true},
		{"start-past-end", 60, 30, true},
		{"both-past-n", n + 5, n + 9, true},
	}
	cols := ColumnSet{Numeric: []int{0}}
	for _, b := range backends {
		for _, c := range cases {
			rows := 0
			err := b.rel.ScanRange(c.start, c.end, cols, func(batch *Batch) error {
				rows += batch.Len
				return nil
			})
			if c.wantErr {
				if err == nil {
					t.Errorf("%s/%s: invalid range accepted", b.name, c.name)
				} else if !strings.Contains(err.Error(), "scan range") {
					t.Errorf("%s/%s: error %q does not mention the scan range", b.name, c.name, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%s: %v", b.name, c.name, err)
				continue
			}
			if want := c.end - c.start; rows != want {
				t.Errorf("%s/%s: delivered %d rows, want %d", b.name, c.name, rows, want)
			}
		}
		// Column-set validation precedes bounds checking on every backend,
		// and an invalid column set errors even on an otherwise-valid range.
		if err := b.rel.ScanRange(0, 1, ColumnSet{Numeric: []int{99}}, func(*Batch) error { return nil }); err == nil {
			t.Errorf("%s: out-of-range column accepted", b.name)
		}
	}
}
