package relation

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// formatHashSchema is the fixture schema of TestFileFormatHashes: a
// continuous column carrying NaN, ±Inf and −0 (raw blocks), a small
// integer column (delta), integers beyond ±2^52 (frame of reference), a
// low-cardinality column with a NaN member (dictionary), and two
// Booleans.
func formatHashSchema() Schema {
	return Schema{
		{Name: "Real", Kind: Numeric},
		{Name: "Count", Kind: Numeric},
		{Name: "Big", Kind: Numeric},
		{Name: "Level", Kind: Numeric},
		{Name: "P", Kind: Boolean},
		{Name: "Q", Kind: Boolean},
	}
}

// formatHashRows returns the seeded fixture relation of
// TestFileFormatHashes.
func formatHashRows(n int) *MemoryRelation {
	mem := MustNewMemoryRelation(formatHashSchema())
	rng := rand.New(rand.NewSource(24))
	levels := []float64{0.25, 1.5, -3.75, math.NaN()}
	for i := 0; i < n; i++ {
		real := rng.NormFloat64() * 1e3
		switch {
		case i%97 == 0:
			real = math.NaN()
		case i%101 == 5:
			real = math.Inf(1)
		case i%103 == 6:
			real = math.Inf(-1)
		case i%89 == 7:
			real = math.Copysign(0, -1)
		}
		mem.MustAppend([]float64{
			real,
			float64(rng.Intn(200)),
			float64(uint64(1)<<55) + float64(rng.Intn(1<<20))*8,
			levels[rng.Intn(len(levels))],
		}, []bool{rng.Intn(2) == 0, i%7 == 0})
	}
	return mem
}

// TestFileFormatHashes pins the bytes every writer produces: one seeded
// relation written as v1, v2 and v3 files (block groups of 256 rows, so
// the last group is partial), as a v3 file clustered by Level, as a v1
// file converted to v3 at the default group size, and as a 3-shard v2
// set (shard files and manifest). A writer change that its own reader
// still round-trips changes a digest here.
func TestFileFormatHashes(t *testing.T) {
	const n, groupRows = 1000, 256
	mem := formatHashRows(n)
	schema := mem.Schema()
	dir := t.TempDir()
	write := func(name string, dw *DiskWriter, err error, cluster int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if cluster >= 0 {
			if err := dw.ClusterBy(cluster); err != nil {
				t.Fatal(err)
			}
		}
		if err := appendAll(mem, dw.Append); err != nil {
			t.Fatal(err)
		}
		if err := dw.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	at := func(name string) string { return filepath.Join(dir, name) }
	dw, err := NewDiskWriter(at("v1.opr"), schema)
	write("v1.opr", dw, err, -1)
	dw, err = NewDiskWriterV2(at("v2.opr"), schema, groupRows)
	write("v2.opr", dw, err, -1)
	dw, err = NewDiskWriterV3(at("v3.opr"), schema, groupRows)
	write("v3.opr", dw, err, -1)
	dw, err = NewDiskWriterV3(at("v3-clustered.opr"), schema, groupRows)
	write("v3-clustered.opr", dw, err, 3)
	if err := ConvertDisk(at("v1.opr"), at("v3-converted.opr"), DiskFormatV3); err != nil {
		t.Fatal(err)
	}
	sw, err := NewShardedWriter(at("set.oprs"), schema, ShardedWriterOptions{Shards: 3, TotalRows: n, Format: DiskFormatV2, GroupRows: groupRows})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.writeFrom(mem); err != nil {
		t.Fatal(err)
	}

	// Every v3 encoding is among the pinned bytes.
	encs := map[uint8]bool{}
	for _, name := range []string{"v3.opr", "v3-clustered.opr"} {
		dr, err := OpenDisk(at(name))
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g*groupRows < n; g++ {
			for p := 0; p < 4; p++ {
				encs[dr.numBlock(g, p).enc] = true
			}
		}
		dr.Close()
	}
	for _, enc := range []uint8{v3EncRaw, v3EncDelta, v3EncDict, v3EncRLE, v3EncFOR} {
		if !encs[enc] {
			t.Errorf("no v3 block of the fixture uses encoding %d", enc)
		}
	}

	// Digests of the bytes the writers produced when this test was added.
	want := map[string]string{
		"v1.opr":           "b1795f49457a413e791f57c713d878d0b7d3ac859e371a21e7dc5cc6fb0907e2",
		"v2.opr":           "4eccb3becdb9d61db984d0487978dc4ec8ec0f775bc4eba04bf3baed0a1dedd6",
		"v3.opr":           "6abc132d63bbaaec550b34e0aad4191d6e5d491e9d7388f20d02db7a1a88f154",
		"v3-clustered.opr": "2c905fc79a4f8bac95259b9ba3d6a4877bea1dfd0af7a2b1508a962166a8878e",
		"v3-converted.opr": "8919593ac76e099dcda6467f8d39af9b9a7033f373f179c4e43c7cb788a8e8f7",
		"set.oprs":         "6bb2507c6b2bb103f9d07d1a38e054a0a354a1d8a6b737f90d7ab0996ba51d01",
		"set-s00000.opr":   "f7ab2c3f2dd19843c7b70002ab477710d1d1b0f5d7542da731d25ce04bbdd78e",
		"set-s00001.opr":   "18f88c0046c56a5a961f4eef13ceeb63d7ab1d2b7d4e8860874a1283dbb4183b",
		"set-s00002.opr":   "51334065821cb59f221fb5ea5ffdb5a711f28f0f4bbeff9b578fd9078d296d7c",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) != len(want) {
		t.Errorf("wrote %v, want %d files", names, len(want))
	}
	for _, name := range names {
		data, err := os.ReadFile(at(name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: SHA-256 %s, want %s", name, got, want[name])
		}
	}
}
