package relation

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// appendFixtureTail builds a standalone memory relation of n fresh
// rows over the bank test schema, continuing from rng.
func appendFixtureTail(rng *rand.Rand, n int) *MemoryRelation {
	tail := MustNewMemoryRelation(bankSchema())
	for r := 0; r < n; r++ {
		nums := []float64{rng.Float64() * 1e6, float64(rng.Intn(100))}
		bools := []bool{rng.Intn(2) == 0, rng.Intn(3) == 0}
		tail.MustAppend(nums, bools)
	}
	return tail
}

// TestShardedAppendAndReopen covers the grow-and-pick-up cycle: append
// shards commit through the manifest, an OPEN relation sees them only
// after Reopen (epoch bump), and the grown relation reads back
// tuple-identical to prefix+tail — across mixed shard formats.
func TestShardedAppendAndReopen(t *testing.T) {
	manifest, mem := writeShardedFixture(t, 5, []int{50, 30}, []int{DiskFormatV1, DiskFormatV2}, 16)
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.NumTuples() != 80 {
		t.Fatalf("base relation holds %d tuples, want 80", sr.NumTuples())
	}
	epoch0 := sr.Epoch()

	rng := rand.New(rand.NewSource(99))
	tail := appendFixtureTail(rng, 30)
	rows, err := AppendToSharded(manifest, tail, AppendOptions{Format: DiskFormatV3, RowsPerShard: 12})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 30 {
		t.Fatalf("appended %d rows, want 30", rows)
	}
	// Commit is visible to new opens but NOT to the live handle until
	// Reopen: in-flight consumers keep their snapshot.
	if sr.NumTuples() != 80 {
		t.Errorf("live handle saw appended rows before Reopen: %d tuples", sr.NumTuples())
	}
	added, err := sr.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if added != 30 {
		t.Fatalf("Reopen added %d rows, want 30", added)
	}
	if sr.Epoch() == epoch0 {
		t.Errorf("epoch did not advance across a growing Reopen")
	}
	if sr.NumTuples() != 110 || sr.NumShards() != 5 {
		t.Fatalf("grown relation: %d tuples in %d shards, want 110 in 5 (12+12+6 appended)", sr.NumTuples(), sr.NumShards())
	}
	// A second Reopen with no growth is a cheap no-op.
	added, err = sr.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || sr.Epoch() != epoch0+1 {
		t.Errorf("no-growth Reopen: added %d, epoch %d (want 0, %d)", added, sr.Epoch(), epoch0+1)
	}

	// Tuple identity: grown relation == prefix rows ++ tail rows.
	wantN, wantB := collectRange(t, mem, 0, 80)
	tn, tb := collectRange(t, tail, 0, 30)
	wantN = append(wantN, tn...)
	wantB = append(wantB, tb...)
	gotN, gotB := collectRange(t, sr, 0, 110)
	for i := range wantN {
		if gotN[i] != wantN[i] || gotB[i] != wantB[i] {
			t.Fatalf("row %d differs after append: %v/%v vs %v/%v", i, gotN[i], gotB[i], wantN[i], wantB[i])
		}
	}
	// And a cold open agrees.
	fresh, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.NumTuples() != 110 {
		t.Errorf("cold open sees %d tuples, want 110", fresh.NumTuples())
	}
}

// TestShardedAppendSchemaMismatchRefused pins the all-or-nothing
// contract: a schema mismatch is refused before any file is created,
// and the manifest stays byte-identical.
func TestShardedAppendSchemaMismatchRefused(t *testing.T) {
	manifest, _ := writeShardedFixture(t, 7, []int{20}, []int{DiskFormatV2}, 16)
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(manifest))
	if err != nil {
		t.Fatal(err)
	}
	wrong := MustNewMemoryRelation(Schema{
		{Name: "Other", Kind: Numeric},
		{Name: "Flag", Kind: Boolean},
	})
	wrong.MustAppend([]float64{1}, []bool{true})
	if _, err := AppendToSharded(manifest, wrong, AppendOptions{}); err == nil {
		t.Fatalf("schema mismatch accepted")
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("manifest changed by refused append")
	}
	entriesAfter, err := os.ReadDir(filepath.Dir(manifest))
	if err != nil {
		t.Fatal(err)
	}
	if len(entriesAfter) != len(entries) {
		t.Errorf("refused append left files behind: %d entries, had %d", len(entriesAfter), len(entries))
	}
}

// TestShardedAppendZeroRowsUntouched pins that appending an empty
// source leaves the manifest byte-identical (no commit for nothing).
func TestShardedAppendZeroRowsUntouched(t *testing.T) {
	manifest, _ := writeShardedFixture(t, 11, []int{20}, []int{DiskFormatV2}, 16)
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	empty := MustNewMemoryRelation(bankSchema())
	rows, err := AppendToSharded(manifest, empty, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 0 {
		t.Fatalf("empty append reported %d rows", rows)
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("manifest rewritten by zero-row append")
	}
}

// TestShardedReopenRequiresAppendOnlyGrowth pins Reopen's safety rail:
// a manifest whose existing lines shrank or changed is an in-place
// rewrite, not an append, and must be refused (the snapshot's shard
// handles would be lies).
func TestShardedReopenRequiresAppendOnlyGrowth(t *testing.T) {
	manifest, _ := writeShardedFixture(t, 13, []int{20, 10}, []int{DiskFormatV2, DiskFormatV2}, 16)
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	original, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(original), "\n"), "\n")

	// Shrunk: drop the last shard line.
	if err := os.WriteFile(manifest, []byte(strings.Join(lines[:len(lines)-1], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Reopen(); err == nil {
		t.Errorf("Reopen accepted a shrunken manifest")
	}

	// Changed row count on an existing line.
	mutated := append([]string(nil), lines...)
	mutated[1] = strings.Replace(mutated[1], "shard 20 ", "shard 19 ", 1)
	if err := os.WriteFile(manifest, []byte(strings.Join(mutated, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Reopen(); err == nil {
		t.Errorf("Reopen accepted a mutated shard line")
	}

	// Restored: Reopen recovers.
	if err := os.WriteFile(manifest, original, 0o644); err != nil {
		t.Fatal(err)
	}
	if added, err := sr.Reopen(); err != nil || added != 0 {
		t.Errorf("Reopen after restore: added %d, err %v", added, err)
	}
}

// TestShardedReopenDuringScan pins the epoch/snapshot contract: a scan
// in flight when Reopen lands keeps delivering its pre-append snapshot
// — exactly the old tuple count, no torn view.
func TestShardedReopenDuringScan(t *testing.T) {
	manifest, _ := writeShardedFixture(t, 17, []int{40, 40}, []int{DiskFormatV2, DiskFormatV2}, 16)
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	rng := rand.New(rand.NewSource(101))
	delivered := 0
	reopened := false
	err = sr.Scan(ColumnSet{Numeric: []int{0}}, func(b *Batch) error {
		delivered += b.Len
		if !reopened {
			reopened = true
			tail := appendFixtureTail(rng, 25)
			if _, err := AppendToSharded(manifest, tail, AppendOptions{}); err != nil {
				return fmt.Errorf("append mid-scan: %w", err)
			}
			if _, err := sr.Reopen(); err != nil {
				return fmt.Errorf("reopen mid-scan: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 80 {
		t.Errorf("mid-append scan delivered %d rows, want the 80-row snapshot", delivered)
	}
	if sr.NumTuples() != 105 {
		t.Errorf("post-scan relation holds %d tuples, want 105", sr.NumTuples())
	}
}

// TestShardedGrowReclaimsOrphanShards pins the orphan rule: before it
// numbers new shards, a grow removes exactly the files named
// <base>-sNNNNN.opr numbered above the highest base-named shard the
// committed manifest names — the shards of a grow that never
// committed. Every committed shard keeps its bytes, and base-named
// files at or below that number and files under other names survive.
func TestShardedGrowReclaimsOrphanShards(t *testing.T) {
	manifest, mem := writeShardedFixture(t, 19, []int{10}, []int{DiskFormatV2}, 16)
	dir := filepath.Dir(manifest)
	rng := rand.New(rand.NewSource(23))
	first := appendFixtureTail(rng, 5)
	if _, err := AppendToSharded(manifest, first, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	// The manifest now names part-00.opr and rel-s00001.opr.
	committed := map[string][]byte{}
	for _, name := range []string{"part-00.opr", "rel-s00001.opr"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		committed[name] = data
	}
	orphans := []string{"rel-s00002.opr", "rel-s00007.opr"}
	keep := []string{"rel-s00000.opr", "rel-s2.opr", "rel-s000002.opr", "rel-s00002.opr.bak", "other-s00002.opr"}
	for _, name := range append(append([]string{}, orphans...), keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	second := appendFixtureTail(rng, 4)
	if _, err := AppendToSharded(manifest, second, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range keep {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != name {
			t.Errorf("%s: got %q, %v; want it untouched", name, got, err)
		}
	}
	for name, want := range committed {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("committed shard %s changed (%v)", name, err)
		}
	}
	// The orphan at the next number was replaced by the grow's own
	// shard; the one above it is gone.
	if _, err := OpenDisk(filepath.Join(dir, "rel-s00002.opr")); err != nil {
		t.Errorf("grow's shard rel-s00002.opr: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "rel-s00007.opr")); !os.IsNotExist(err) {
		t.Errorf("orphan rel-s00007.opr survived: %v", err)
	}
	checkRows(t, manifest, mem, first, second)
}

// TestShardedGrowKeepsShardsNamedByOtherPaths pins that the orphan
// rule matches committed shards by file identity, not path text: a
// manifest that names its shards by absolute path, through "..", or
// from behind a symlinked directory, grown through a manifest path
// spelled another way, keeps every committed shard and still reclaims
// the real orphan. A manifest naming a missing shard is refused before
// any file is created.
func TestShardedGrowKeepsShardsNamedByOtherPaths(t *testing.T) {
	// setup writes two committed shards rel-s00000.opr and
	// rel-s00001.opr, a manifest naming them by lines(dir), and an
	// orphan rel-s00004.opr.
	setup := func(t *testing.T, lines func(dir string) string) (string, *MemoryRelation, map[string][]byte) {
		manifest, mem := writeShardedFixture(t, 83, []int{10, 6}, []int{DiskFormatV2, DiskFormatV2}, 8)
		dir := filepath.Dir(manifest)
		committed := map[string][]byte{}
		for i := range 2 {
			name := shardFileName("rel", i)
			if err := os.Rename(filepath.Join(dir, fmt.Sprintf("part-%02d.opr", i)), filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			committed[name] = data
		}
		if err := os.WriteFile(manifest, []byte("OPTSHARD 1\n"+lines(dir)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "rel-s00004.opr"), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
		return manifest, mem, committed
	}
	absolute := func(dir string) string {
		return fmt.Sprintf("shard 10 %s\nshard 6 %s\n", filepath.Join(dir, "rel-s00000.opr"), filepath.Join(dir, "rel-s00001.opr"))
	}
	for _, tc := range []struct {
		name  string
		lines func(dir string) string
		// via returns the manifest path the grow is given.
		via func(t *testing.T, manifest string) string
	}{
		{"absolute entries, relative manifest path", absolute, func(t *testing.T, manifest string) string {
			t.Chdir(filepath.Dir(manifest))
			return filepath.Base(manifest)
		}},
		{"dot-dot entries", func(dir string) string {
			up := filepath.Join("..", filepath.Base(dir))
			return fmt.Sprintf("shard 10 %s\nshard 6 %s\n", filepath.Join(up, "rel-s00000.opr"), filepath.Join(up, "rel-s00001.opr"))
		}, func(t *testing.T, manifest string) string { return manifest }},
		{"absolute entries, symlinked directory", absolute, func(t *testing.T, manifest string) string {
			link := filepath.Join(t.TempDir(), "via")
			if err := os.Symlink(filepath.Dir(manifest), link); err != nil {
				t.Skip("symlinks unavailable:", err)
			}
			return filepath.Join(link, filepath.Base(manifest))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			manifest, mem, committed := setup(t, tc.lines)
			dir := filepath.Dir(manifest)
			tail := appendFixtureTail(rand.New(rand.NewSource(89)), 5)
			if _, err := AppendToSharded(tc.via(t, manifest), tail, AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			for name, want := range committed {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("committed shard %s changed (%v)", name, err)
				}
			}
			if _, err := OpenDisk(filepath.Join(dir, "rel-s00002.opr")); err != nil {
				t.Errorf("grow's shard rel-s00002.opr: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "rel-s00004.opr")); !os.IsNotExist(err) {
				t.Errorf("orphan rel-s00004.opr survived: %v", err)
			}
			checkRows(t, manifest, mem, tail)
		})
	}
	t.Run("missing shard", func(t *testing.T) {
		manifest, _, _ := setup(t, absolute)
		dir := filepath.Dir(manifest)
		if err := os.Remove(filepath.Join(dir, "rel-s00001.opr")); err != nil {
			t.Fatal(err)
		}
		before := dirListing(t, dir)
		tail := appendFixtureTail(rand.New(rand.NewSource(97)), 3)
		if _, err := AppendToSharded(manifest, tail, AppendOptions{}); err == nil {
			t.Fatal("grow of a manifest naming a missing shard succeeded")
		}
		if got := dirListing(t, dir); !reflect.DeepEqual(got, before) {
			t.Errorf("refused grow changed the directory: %v, want %v", got, before)
		}
	})
}

// dirListing returns the sorted file names in dir.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestShardedAppendFaultMidStreamRollsBack pins the all-or-nothing
// contract when the source fails AFTER appended shards were already
// committed: the injected error surfaces, the committed shards are
// removed, and the manifest is byte-identical.
func TestShardedAppendFaultMidStreamRollsBack(t *testing.T) {
	manifest, _ := writeShardedFixture(t, 29, []int{20}, []int{DiskFormatV2}, 16)
	dir := filepath.Dir(manifest)
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	listing := dirListing(t, dir)
	tail := NewFaultRelation(appendFixtureTail(rand.New(rand.NewSource(31)), 40),
		FaultConfig{FailScans: []int{1}, FailAfterRows: 25})
	// 10-row shards: rows 0-19 fill two committed shards before the
	// fault at row 25 interrupts the third.
	if _, err := AppendToSharded(manifest, tail, AppendOptions{RowsPerShard: 10}); !errors.Is(err, ErrInjected) {
		t.Fatalf("append over a faulting source: err = %v, want ErrInjected", err)
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("failed append rewrote the manifest:\n%s", after)
	}
	if got := dirListing(t, dir); !reflect.DeepEqual(got, listing) {
		t.Errorf("failed append left the directory at %v, want %v", got, listing)
	}
}

// TestShardedWriteAndAppendManifestBytes pins the exact manifest text
// of a fresh write and of grows onto it and onto a hand-written
// relation with custom shard names, whose lines must survive verbatim.
func TestShardedWriteAndAppendManifestBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	readManifest := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	fresh := filepath.Join(t.TempDir(), "rel.oprs")
	sw, err := NewShardedWriter(fresh, bankSchema(), ShardedWriterOptions{Shards: 3, TotalRows: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendAll(appendFixtureTail(rng, 9), sw.Append); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	want := "OPTSHARD 1\n" +
		"shard 3 rel-s00000.opr\n" +
		"shard 3 rel-s00001.opr\n" +
		"shard 3 rel-s00002.opr\n"
	if got := readManifest(fresh); got != want {
		t.Fatalf("fresh manifest:\n%s\nwant:\n%s", got, want)
	}
	if _, err := AppendToSharded(fresh, appendFixtureTail(rng, 7), AppendOptions{RowsPerShard: 5}); err != nil {
		t.Fatal(err)
	}
	want += "shard 5 rel-s00003.opr\n" +
		"shard 2 rel-s00004.opr\n"
	if got := readManifest(fresh); got != want {
		t.Errorf("grown manifest:\n%s\nwant:\n%s", got, want)
	}

	custom, _ := writeShardedFixture(t, 41, []int{20, 10}, []int{DiskFormatV1, DiskFormatV2}, 16)
	if _, err := AppendToSharded(custom, appendFixtureTail(rng, 7), AppendOptions{RowsPerShard: 5}); err != nil {
		t.Fatal(err)
	}
	want = "OPTSHARD 1\n" +
		"shard 20 part-00.opr\n" +
		"shard 10 part-01.opr\n" +
		"shard 5 rel-s00002.opr\n" +
		"shard 2 rel-s00003.opr\n"
	if got := readManifest(custom); got != want {
		t.Errorf("grown custom-named manifest:\n%s\nwant:\n%s", got, want)
	}
}

// TestShardedWriterDiscardAfterRollover pins Discard's contract: every
// file the writer created — committed shards and the in-progress
// shard's temp file — is removed, an existing manifest is untouched,
// and the writer refuses further use.
func TestShardedWriterDiscardAfterRollover(t *testing.T) {
	manifest, _ := writeShardedFixture(t, 43, []int{10}, []int{DiskFormatV2}, 16)
	dir := filepath.Dir(manifest)
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	listing := dirListing(t, dir)
	sw, err := NewShardedWriter(manifest, bankSchema(), ShardedWriterOptions{RowsPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 5 rows: two committed shards and a third in progress.
	if err := appendAll(appendFixtureTail(rand.New(rand.NewSource(47)), 5), sw.Append); err != nil {
		t.Fatal(err)
	}
	if got := dirListing(t, dir); len(got) != len(listing)+3 {
		t.Fatalf("after two rollovers the directory holds %v; want 2 committed shards and a temp file beside %v", got, listing)
	}
	sw.Discard()
	if got := dirListing(t, dir); !reflect.DeepEqual(got, listing) {
		t.Errorf("Discard left the directory at %v, want %v", got, listing)
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("Discard touched the existing manifest")
	}
	if err := sw.Append([]float64{1, 2}, []bool{true, false}); err == nil {
		t.Error("Append after Discard succeeded")
	}
	if err := sw.Close(); err == nil {
		t.Error("Close after Discard succeeded")
	}
}

// TestShardedWriterFailedCloseRemovesShards pins that a Close whose
// manifest commit fails leaves no committed shard behind and stays
// failed.
func TestShardedWriterFailedCloseRemovesShards(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory where the manifest should go: every shard
	// commits, then the manifest rename fails.
	manifest := filepath.Join(dir, "rel.oprs")
	if err := os.MkdirAll(filepath.Join(manifest, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	listing := dirListing(t, dir)
	sw, err := NewShardedWriter(manifest, bankSchema(), ShardedWriterOptions{RowsPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendAll(appendFixtureTail(rand.New(rand.NewSource(53)), 5), sw.Append); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close committed a manifest over a directory")
	}
	if got := dirListing(t, dir); !reflect.DeepEqual(got, listing) {
		t.Errorf("failed Close left the directory at %v, want %v", got, listing)
	}
	if err := sw.Close(); err == nil {
		t.Error("second Close after a failed Close reported success")
	}
}

// checkRows requires the relation at manifest to hold exactly the rows
// of want, concatenated in order.
func checkRows(t *testing.T, manifest string, want ...*MemoryRelation) {
	t.Helper()
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var wantN []float64
	var wantB []bool
	for _, rel := range want {
		n, b := collectRange(t, rel, 0, rel.NumTuples())
		wantN, wantB = append(wantN, n...), append(wantB, b...)
	}
	gotN, gotB := collectRange(t, sr, 0, sr.NumTuples())
	if !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("relation holds %d rows that differ from the %d-row stream", len(gotN), len(wantN))
	}
}

// TestShardedAppendKeepsHandWrittenLines pins that a grow commits in
// place: a hand-written manifest's comments and blank lines survive,
// its missing final newline is supplied, the manifest keeps its inode
// (no rename), and the relation reads as the old rows then the new.
func TestShardedAppendKeepsHandWrittenLines(t *testing.T) {
	manifest, mem := writeShardedFixture(t, 59, []int{20, 10}, []int{DiskFormatV2, DiskFormatV1}, 16)
	hand := "OPTSHARD 1\n# nightly load\n\nshard 20 part-00.opr\n\n  # second part\nshard 10 part-01.opr"
	if err := os.WriteFile(manifest, []byte(hand), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	tail := appendFixtureTail(rand.New(rand.NewSource(61)), 7)
	if _, err := AppendToSharded(manifest, tail, AppendOptions{RowsPerShard: 5}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if want := hand + "\nshard 5 rel-s00002.opr\nshard 2 rel-s00003.opr\n"; string(got) != want {
		t.Errorf("grown hand-written manifest:\n%q\nwant:\n%q", got, want)
	}
	after, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Errorf("grow replaced the manifest file instead of writing it in place")
	}
	checkRows(t, manifest, mem, tail)
}

// copyRelationDir copies every file of a relation's directory into a
// fresh directory and returns the manifest's path there.
func copyRelationDir(t *testing.T, manifest string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range dirListing(t, filepath.Dir(manifest)) {
		data, err := os.ReadFile(filepath.Join(filepath.Dir(manifest), name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, filepath.Base(manifest))
}

// writeAt writes data into the existing file at path at offset off.
func writeAt(t *testing.T, path string, data []byte, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, off); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTornGrowMatrix cuts a one-shard and a two-shard grow onto
// a v2 set at every byte of its staged manifest record. Before the
// commit byte, OpenSharded and a Reopen see exactly the old relation;
// after it (written only once the whole record is staged), the whole
// grow. From every state the next AppendToSharded succeeds, cuts off
// the stale staged tail, and the relation equals the same stream in
// memory.
func TestShardedTornGrowMatrix(t *testing.T) {
	base, mem := writeShardedFixture(t, 67, []int{20, 12}, []int{DiskFormatV2, DiskFormatV2}, 8)
	committed, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	next := appendFixtureTail(rng, 6)
	for _, grow := range []struct {
		name   string
		rows   int
		shards int
		opts   AppendOptions
	}{
		{"one-shard", 7, 1, AppendOptions{}},
		{"two-shard", 9, 2, AppendOptions{RowsPerShard: 5}},
	} {
		t.Run(grow.name, func(t *testing.T) {
			tail := appendFixtureTail(rng, grow.rows)
			grown := copyRelationDir(t, base)
			if _, err := AppendToSharded(grown, tail, grow.opts); err != nil {
				t.Fatal(err)
			}
			full, err := os.ReadFile(grown)
			if err != nil {
				t.Fatal(err)
			}
			record := full[len(committed):]
			staged := append([]byte{0}, record[1:]...)
			for c := 0; c <= len(staged); c++ {
				for _, commit := range []bool{false, true} {
					if commit && c < len(staged) {
						continue // the commit byte is written only after the whole record
					}
					// The grow's committed shard files are in place; the
					// manifest is cut back to the committed text and a
					// handle opened on it before the grow is written.
					manifest := copyRelationDir(t, grown)
					end := int64(len(committed))
					if err := os.Truncate(manifest, end); err != nil {
						t.Fatal(err)
					}
					live, err := OpenSharded(manifest)
					if err != nil {
						t.Fatal(err)
					}
					writeAt(t, manifest, staged[:c], end)
					want, wantRows, wantShards := []*MemoryRelation{mem}, mem.NumTuples(), 2
					if commit {
						writeAt(t, manifest, record[:1], end)
						want, wantRows, wantShards = append(want, tail), wantRows+grow.rows, wantShards+grow.shards
					}
					if _, err := live.Reopen(); err != nil {
						t.Fatalf("c=%d commit=%v: Reopen: %v", c, commit, err)
					}
					if live.NumTuples() != wantRows || live.NumShards() != wantShards {
						t.Errorf("c=%d commit=%v: Reopen sees %d rows in %d shards, want %d in %d",
							c, commit, live.NumTuples(), live.NumShards(), wantRows, wantShards)
					}
					live.Close()
					checkRows(t, manifest, want...)

					named, _, err := readShardManifest(manifest)
					if err != nil {
						t.Fatal(err)
					}
					shardBytes := map[string][]byte{}
					for _, e := range named {
						if shardBytes[e.path], err = os.ReadFile(e.path); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := AppendToSharded(manifest, next, AppendOptions{}); err != nil {
						t.Fatalf("c=%d commit=%v: next grow: %v", c, commit, err)
					}
					checkRows(t, manifest, append(want, next)...)
					// The next grow reclaimed any uncommitted grow's shards:
					// every file left in the directory is the manifest or a
					// shard it names, and every committed shard still opens
					// with its bytes and rows unchanged.
					after, _, err := readShardManifest(manifest)
					if err != nil {
						t.Fatal(err)
					}
					files := map[string]bool{filepath.Base(manifest): true}
					for _, e := range after {
						files[filepath.Base(e.path)] = true
					}
					for _, name := range dirListing(t, filepath.Dir(manifest)) {
						if !files[name] {
							t.Errorf("c=%d commit=%v: next grow left orphan %s", c, commit, name)
						}
					}
					for i, e := range named {
						data, err := os.ReadFile(e.path)
						if err != nil || !bytes.Equal(data, shardBytes[e.path]) {
							t.Errorf("c=%d commit=%v: committed shard %s changed (%v)", c, commit, e.path, err)
						}
						dr, err := OpenDisk(e.path)
						if err != nil {
							t.Fatalf("c=%d commit=%v: committed shard %s: %v", c, commit, e.path, err)
						}
						if dr.NumTuples() != e.rows {
							t.Errorf("c=%d commit=%v: shard %d holds %d rows, want %d", c, commit, i, dr.NumTuples(), e.rows)
						}
						dr.Close()
					}
					text, err := os.ReadFile(manifest)
					if err != nil {
						t.Fatal(err)
					}
					// The next grow's one line follows the committed text directly.
					prefix := string(committed)
					if commit {
						prefix = string(full)
					}
					rest := strings.TrimPrefix(string(text), prefix)
					if !strings.HasPrefix(string(text), prefix) || !strings.HasPrefix(rest, "shard 6 rel-s") ||
						!strings.HasSuffix(rest, ".opr\n") || strings.Count(rest, "\n") != 1 || strings.IndexByte(rest, 0) >= 0 {
						t.Errorf("c=%d commit=%v: next grow left %q", c, commit, text)
					}
				}
			}
		})
	}
}

// TestShardedReopenDuringGrow races readers against ~50 grows that mix
// one-shard and two-shard appends. Every shard list a fresh
// OpenSharded or a long-lived handle's Reopen observes must be the
// base plus a whole number of completed grows — never a two-shard grow
// cut after its first line. Meaningful under -race.
func TestShardedReopenDuringGrow(t *testing.T) {
	const grows = 50
	manifest, mem := writeShardedFixture(t, 73, []int{20, 20}, []int{DiskFormatV2, DiskFormatV2}, 8)
	// rowsAt maps each shard count a whole number of grows reaches to
	// the relation's row count there. Grows add 1, 2, 1, 2, ... shards,
	// so a two-shard grow cut after one line (base+1 mod 3) is absent.
	rowsAt := map[int]int{2: mem.NumTuples()}
	tails := make([]*MemoryRelation, grows)
	rng := rand.New(rand.NewSource(79))
	for i, shards, rows := 0, 2, mem.NumTuples(); i < grows; i++ {
		tails[i] = appendFixtureTail(rng, 6)
		shards, rows = shards+1+i%2, rows+6
		rowsAt[shards] = rows
	}
	live, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	check := func(how string, sr *ShardedRelation) {
		if rows, ok := rowsAt[sr.NumShards()]; !ok || rows != sr.NumTuples() {
			t.Errorf("%s saw %d rows in %d shards: not a whole number of grows", how, sr.NumTuples(), sr.NumShards())
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sr, err := OpenSharded(manifest)
			if err != nil {
				t.Errorf("OpenSharded during grows: %v", err)
				return
			}
			check("OpenSharded", sr)
			sr.Close()
			seen := live.NumShards()
			if _, err := live.Reopen(); err != nil {
				t.Errorf("Reopen during grows: %v", err)
				return
			}
			check("Reopen", live)
			if live.NumShards() < seen {
				t.Errorf("Reopen went back from %d to %d shards", seen, live.NumShards())
			}
		}
	}()
	for i, tail := range tails {
		opts := AppendOptions{}
		if i%2 == 1 {
			opts.RowsPerShard = 3 // two 3-row shards
		}
		if _, err := AppendToSharded(manifest, tail, opts); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	<-done
	checkRows(t, manifest, append([]*MemoryRelation{mem}, tails...)...)
}

// errManifestOp is the failure faultyManifest injects.
var errManifestOp = errors.New("injected manifest file failure")

// faultyManifest is a grow's manifest file whose named operation
// ("write" for the staged record, "stat", "truncate", "commit" for the
// commit byte, or "close") runs and then reports errManifestOp.
type faultyManifest struct {
	*os.File
	op     string
	writes int
}

func (f *faultyManifest) fail(op string, err error) error {
	if err == nil && op == f.op {
		return errManifestOp
	}
	return err
}

func (f *faultyManifest) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	f.writes++
	if f.writes > 1 {
		return n, f.fail("commit", err)
	}
	return n, f.fail("write", err)
}

func (f *faultyManifest) Stat() (os.FileInfo, error) {
	st, err := f.File.Stat()
	return st, f.fail("stat", err)
}

func (f *faultyManifest) Truncate(size int64) error {
	return f.fail("truncate", f.File.Truncate(size))
}

func (f *faultyManifest) Close() error { return f.fail("close", f.File.Close()) }

// TestShardedGrowCommitFaultRollsBack fails each file operation of a
// grow's manifest commit in turn — the staged write, the stat, the cut
// of an earlier grow's leftover tail, the commit byte and the close —
// each after the operation ran. Every failure must roll the manifest
// back to exactly its committed text, leave an open relation's Reopen
// and a fresh OpenSharded on the old rows, and remove the grow's shard
// files.
func TestShardedGrowCommitFaultRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, op := range []string{"write", "stat", "truncate", "commit", "close"} {
		t.Run(op, func(t *testing.T) {
			manifest, mem := writeShardedFixture(t, 79, []int{20, 12}, []int{DiskFormatV2, DiskFormatV3}, 8)
			committed, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			// An earlier failed grow's staged tail, longer than this grow's
			// record, so the commit has a leftover to cut.
			writeAt(t, manifest, append([]byte{0}, strings.Repeat("shard 1 stale.opr\n", 20)...), int64(len(committed)))
			listing := dirListing(t, filepath.Dir(manifest))
			live, err := OpenSharded(manifest)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()

			tail := appendFixtureTail(rng, 9)
			sw, err := growWriter(manifest, tail.Schema(), AppendOptions{RowsPerShard: 5})
			if err != nil {
				t.Fatal(err)
			}
			sw.openManifest = func(path string) (manifestFile, error) {
				f, err := os.OpenFile(path, os.O_WRONLY, 0)
				if err != nil {
					return nil, err
				}
				return &faultyManifest{File: f, op: op}, nil
			}
			if err := sw.writeFrom(tail); !errors.Is(err, errManifestOp) {
				t.Fatalf("grow with a failing %s: err = %v, want the injected failure", op, err)
			}

			if got, err := os.ReadFile(manifest); err != nil || string(got) != string(committed) {
				t.Errorf("manifest after the failed grow = %q (%v), want the committed %q", got, err, committed)
			}
			if added, err := live.Reopen(); err != nil || added != 0 ||
				live.NumTuples() != mem.NumTuples() || live.NumShards() != 2 {
				t.Errorf("Reopen after the failed grow: added %d (%v), %d rows in %d shards, want the old %d in 2",
					added, err, live.NumTuples(), live.NumShards(), mem.NumTuples())
			}
			checkRows(t, manifest, mem)
			if got := dirListing(t, filepath.Dir(manifest)); !reflect.DeepEqual(got, listing) {
				t.Errorf("failed grow left the directory at %v, want %v", got, listing)
			}
		})
	}
}
