package miner

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// writeGrouped copies mem into a fresh v2 or v3 file with the given
// block-group size.
func writeGrouped(t *testing.T, mem *relation.MemoryRelation, version, groupRows int) *relation.DiskRelation {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.opr", version))
	schema := mem.Schema()
	var dw *relation.DiskWriter
	var err error
	if version == relation.DiskFormatV3 {
		dw, err = relation.NewDiskWriterV3(path, schema, groupRows)
	} else {
		dw, err = relation.NewDiskWriterV2(path, schema, groupRows)
	}
	if err != nil {
		t.Fatal(err)
	}
	cols := relation.ColumnSet{Numeric: schema.NumericIndices(), Bool: schema.BooleanIndices()}
	nums, bools := make([]float64, len(cols.Numeric)), make([]bool, len(cols.Bool))
	err = mem.Scan(cols, func(b *relation.Batch) error {
		for row := 0; row < b.Len; row++ {
			for k := range nums {
				nums[k] = b.Numeric[k][row]
			}
			for k := range bools {
				bools[k] = b.Bool[k][row]
			}
			if err := dw.Append(nums, bools); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		dw.Discard()
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dr.Close() })
	return dr
}

// TestDefaultParallelMatchesSerial pins the default worker count: a
// session with PEs unset counts with GOMAXPROCS workers, and at
// GOMAXPROCS 1, 2 and 4 every answer of a mixed batch is bit-identical
// to a PEs: 1 session's, on memory, v1, v2 (block groups of 5000 rows,
// not a multiple of the batch size), v3 and sharded storage. The mixed
// batch runs in two steps: first without its average-operator query,
// then whole, which leaves only the average's float-sum group to
// count. Both schedules split into chunks whenever there is more than
// one CPU, and the float target sums stay bit-identical to the serial
// scan's.
func TestDefaultParallelMatchesSerial(t *testing.T) {
	const n = 20000
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, n, 29)
	if err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(t.TempDir(), "v1.opr")
	if err := datagen.WriteDiskFormat(v1, bank, n, 29, relation.DiskFormatV1); err != nil {
		t.Fatal(err)
	}
	dr1, err := relation.OpenDisk(v1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dr1.Close() })
	manifest := filepath.Join(t.TempDir(), "rel.oprs")
	if err := datagen.WriteSharded(manifest, bank, n, 29, 3, relation.DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	backends := []struct {
		name string
		rel  relation.Relation
	}{
		{"memory", mem},
		{"v1", dr1},
		{"v2", writeGrouped(t, mem, relation.DiskFormatV2, 5000)},
		{"v3", writeGrouped(t, mem, relation.DiskFormatV3, 5000)},
		{"sharded", sr},
	}

	full := mixedBatch()
	var noAvg []Query
	for _, q := range full {
		if q.Op != OpAverage {
			noAvg = append(noAvg, q)
		}
	}
	if len(noAvg) != len(full)-1 {
		t.Fatalf("mixed batch carries %d average queries, want 1", len(full)-len(noAvg))
	}
	run := func(rel relation.Relation, pes int) [][]Answer {
		s, err := NewSession(rel, Config{Buckets: 200, Seed: 5, PEs: pes})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]Answer
		for _, batch := range [][]Query{noAvg, full} {
			answers, err := s.ExecuteBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			checkAnswers(t, answers)
			out = append(out, answers)
		}
		return out
	}
	serial := make([][][]Answer, len(backends))
	for i, b := range backends {
		serial[i] = run(b.rel, 1)
	}

	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, b := range backends {
			got := run(b.rel, 0)
			for step := range got {
				requireDeepEqual(t, fmt.Sprintf("GOMAXPROCS %d/%s/step %d", procs, b.name, step), got[step], serial[i][step])
			}
		}

		// Scan counts: both schedules count in one chunk per CPU, which
		// on a memory relation are equal-row chunks tiling the relation.
		counting := &relation.CountingRelation{R: mem}
		s, err := NewSession(counting, Config{Buckets: 200, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExecuteBatch(noAvg); err != nil {
			t.Fatal(err)
		}
		// Point-read sampling, then the counting scan's chunks.
		if counting.Scans != procs || !counting.Tiles(0, 0, n) {
			t.Errorf("GOMAXPROCS %d: integer schedule counted in scans %v, want %d tiling [0,%d)", procs, counting.Ranges, procs, n)
		}
		before := counting.Scans
		if _, err := s.ExecuteBatch(full); err != nil {
			t.Fatal(err)
		}
		if counting.Scans-before != procs || !counting.Tiles(before, 0, n) {
			t.Errorf("GOMAXPROCS %d: average-carrying schedule counted in scans %v, want %d tiling [0,%d)",
				procs, counting.Ranges[before:], procs, n)
		}
	}
}
