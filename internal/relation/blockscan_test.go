package relation

import (
	"bytes"
	"runtime"
	"testing"
)

// blockScanFixtures returns a v2 file, a v3 file and a 3-shard
// relation of v2, v3 and v2 shards, each of n rows in 4096-row groups,
// so every scan of them runs several windows.
func blockScanFixtures(t *testing.T, n int) map[string]Relation {
	t.Helper()
	rels := map[string]Relation{}
	for name, write := range map[string]func(*testing.T, int, int64, int) (string, *MemoryRelation){
		"v2": writeTestFileV2, "v3": writeTestFileV3,
	} {
		path, _ := write(t, n, 5, 4096)
		dr, err := OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		rels[name] = dr
	}
	third := n / 3
	manifest, _ := writeShardedFixture(t, 5, []int{third, third, n - 2*third},
		[]int{DiskFormatV2, DiskFormatV3, DiskFormatV2}, 4096)
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	rels["sharded_v2_v3_v2"] = sr
	return rels
}

// TestBlockScanRunsOnCaller pins that a block scan starts no
// goroutine: inside every callback of a v2, a v3 and a mixed 3-shard
// scan, the only goroutine with a scanBlocks frame is the caller's.
func TestBlockScanRunsOnCaller(t *testing.T) {
	buf := make([]byte, 1<<20)
	for name, rel := range blockScanFixtures(t, 30000) {
		t.Run(name, func(t *testing.T) {
			cols := ColumnSet{Numeric: rel.Schema().NumericIndices(), Bool: rel.Schema().BooleanIndices()}
			batches := 0
			err := rel.Scan(cols, func(*Batch) error {
				batches++
				// The caller's goroutine comes first; traces are separated
				// by a blank line.
				traces := bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n"))
				for _, tr := range traces[1:] {
					if bytes.Contains(tr, []byte("(*DiskRelation).scanBlocks")) {
						t.Fatalf("batch %d: another goroutine runs a block scan:\n%s", batches, tr)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if batches < 4 {
				t.Fatalf("scan ran %d windows, want several", batches)
			}
		})
	}
}

// TestBlockScanAllocations bounds what a warm full scan of a v2 and a
// v3 file allocates: the file handle and the column selections, with
// the fetch buffer and the decode scratch reused from the free list.
func TestBlockScanAllocations(t *testing.T) {
	const bound = 5
	for name, rel := range blockScanFixtures(t, 30000) {
		if name != "v2" && name != "v3" {
			continue
		}
		cols := ColumnSet{Numeric: rel.Schema().NumericIndices(), Bool: rel.Schema().BooleanIndices()}
		scan := func() {
			if err := rel.Scan(cols, func(*Batch) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		scan()
		got := testing.AllocsPerRun(20, scan)
		t.Logf("%s: %.0f allocations per warm scan", name, got)
		if got > bound {
			t.Errorf("%s: a warm full scan allocates %.0f times, want at most %d", name, got, bound)
		}
	}
}
