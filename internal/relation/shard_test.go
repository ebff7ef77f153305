package relation

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// writeShardedFixture hand-writes a sharded relation: n pseudo-random
// bank tuples split into contiguous shards of the given sizes, each in
// the given format (parallel slices; formats[i] == DiskFormatV2 uses
// groupRows-row block groups). Returns the manifest path and the
// in-memory twin. The same (n, seed) as writeTestFile yields identical
// data.
func writeShardedFixture(t *testing.T, seed int64, sizes []int, formats []int, groupRows int) (string, *MemoryRelation) {
	t.Helper()
	schema := bankSchema()
	dir := t.TempDir()
	mem := MustNewMemoryRelation(schema)
	rng := rand.New(rand.NewSource(seed))
	var manifest strings.Builder
	fmt.Fprintf(&manifest, "OPTSHARD 1\n")
	for i, size := range sizes {
		name := fmt.Sprintf("part-%02d.opr", i)
		var dw *DiskWriter
		var err error
		if formats[i] == DiskFormatV2 {
			dw, err = NewDiskWriterV2(filepath.Join(dir, name), schema, groupRows)
		} else {
			dw, err = NewDiskWriter(filepath.Join(dir, name), schema)
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < size; r++ {
			nums := []float64{rng.Float64() * 1e6, float64(rng.Intn(100))}
			bools := []bool{rng.Intn(2) == 0, rng.Intn(3) == 0}
			if err := dw.Append(nums, bools); err != nil {
				t.Fatal(err)
			}
			mem.MustAppend(nums, bools)
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&manifest, "shard %d %s\n", size, name)
	}
	path := filepath.Join(dir, "rel.oprs")
	if err := os.WriteFile(path, []byte(manifest.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, mem
}

// collectRange scans [start, end) of rel and returns the Balance
// column plus the CardLoan column.
func collectRange(t *testing.T, rel RangeScanner, start, end int) ([]float64, []bool) {
	t.Helper()
	var nums []float64
	var bools []bool
	err := rel.ScanRange(start, end, ColumnSet{Numeric: []int{0}, Bool: []int{2}}, func(b *Batch) error {
		nums = append(nums, b.Numeric[0][:b.Len]...)
		bools = append(bools, b.Bool[0][:b.Len]...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return nums, bools
}

func TestShardedRoundTrip(t *testing.T) {
	// Mixed formats, a tiny v2 group size so groups end mid-shard, and
	// an empty shard in the middle.
	sizes := []int{1000, 0, 2500, 700}
	formats := []int{DiskFormatV1, DiskFormatV2, DiskFormatV2, DiskFormatV1}
	path, mem := writeShardedFixture(t, 3, sizes, formats, 512)
	sr, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.NumTuples() != 4200 {
		t.Fatalf("NumTuples = %d, want 4200", sr.NumTuples())
	}
	if sr.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sr.NumShards())
	}
	if !sameSchema(sr.Schema(), mem.Schema()) {
		t.Fatalf("schema = %v", sr.Schema())
	}
	if got := len(sr.StoragePaths()); got != 5 {
		t.Fatalf("StoragePaths returned %d paths, want manifest + 4 shards", got)
	}
	wantBal, _ := mem.NumericColumn(0)
	wantCL, _ := mem.BoolColumn(2)

	// Full scan and assorted ranges must agree with the in-memory twin —
	// including ranges inside one shard, straddling shard boundaries, and
	// straddling the empty shard.
	ranges := [][2]int{{0, 4200}, {0, 1}, {999, 1001}, {500, 3100}, {1000, 1000}, {3499, 3501}, {4200, 4200}, {17, 4012}}
	for _, rg := range ranges {
		nums, bools := collectRange(t, sr, rg[0], rg[1])
		if len(nums) != rg[1]-rg[0] {
			t.Fatalf("range %v: delivered %d rows", rg, len(nums))
		}
		for i := range nums {
			if nums[i] != wantBal[rg[0]+i] || bools[i] != wantCL[rg[0]+i] {
				t.Fatalf("range %v: row %d differs", rg, rg[0]+i)
			}
		}
	}
}

func TestShardedScanEarlyAbortAndErrors(t *testing.T) {
	path, _ := writeShardedFixture(t, 5, []int{800, 800, 800}, []int{DiskFormatV2, DiskFormatV2, DiskFormatV2}, 256)
	sr, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	// Callback error propagates from any shard.
	want := errSentinel("stop")
	seen := 0
	err = sr.Scan(ColumnSet{Numeric: []int{0}}, func(b *Batch) error {
		seen += b.Len
		if seen > 1200 { // inside shard 1
			return want
		}
		return nil
	})
	if err != want {
		t.Errorf("callback error lost: %v", err)
	}
	// Column validation errors match the other backends.
	if err := sr.Scan(ColumnSet{Numeric: []int{2}}, func(*Batch) error { return nil }); err == nil {
		t.Errorf("bool column as numeric accepted")
	}
	// A missing shard file surfaces as a scan error, not a panic.
	sr2, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr2.Close()
	if err := os.Remove(sr2.StoragePaths()[2]); err != nil {
		t.Fatal(err)
	}
	if err := sr2.Scan(ColumnSet{Numeric: []int{0}}, func(*Batch) error { return nil }); err == nil {
		t.Errorf("scan with deleted shard succeeded")
	}
}

func TestShardedPointReads(t *testing.T) {
	sizes := []int{300, 300, 300}
	path, mem := writeShardedFixture(t, 7, sizes, []int{DiskFormatV1, DiskFormatV2, DiskFormatV1}, 128)
	sr, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	want, _ := mem.NumericColumn(0)
	rows := []int{0, 0, 5, 299, 300, 301, 599, 600, 600, 899}
	out := make([]float64, len(rows))
	before := sr.BytesRead()
	if err := sr.ReadNumericPoints(0, rows, out); err != nil {
		t.Fatal(err)
	}
	unique := 0
	for i, row := range rows {
		if i == 0 || row != rows[i-1] {
			unique++
		}
		if out[i] != want[row] {
			t.Errorf("row %d = %g, want %g", row, out[i], want[row])
		}
	}
	if got := sr.BytesRead() - before; got != int64(unique)*8 {
		t.Errorf("point reads counted %d bytes, want %d", got, unique*8)
	}
	// Each shard serves its run of the global rows in place: a read
	// allocates a few bytes per shard, not a rebased copy of the rows
	// (8 B per row).
	many := make([]int, 4000)
	for i := range many {
		many[i] = i * 900 / len(many)
	}
	manyOut := make([]float64, len(many))
	least := uint64(math.MaxUint64)
	for rep := 0; rep < 3; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := sr.ReadNumericPoints(0, many, manyOut); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= uint64(2*len(many)) {
		t.Errorf("a %d-row sharded point read allocated %d B, want under %d", len(many), least, 2*len(many))
	}
	for i, row := range many {
		if manyOut[i] != want[row] {
			t.Fatalf("row %d = %g, want %g", row, manyOut[i], want[row])
		}
	}
	// Validation errors, same contract as DiskRelation.
	if err := sr.ReadNumericPoints(2, []int{0}, out[:1]); err == nil {
		t.Error("Boolean attribute accepted")
	}
	if err := sr.ReadNumericPoints(0, []int{900}, out[:1]); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := sr.ReadNumericPoints(0, []int{5, 3}, out[:2]); err == nil {
		t.Error("unsorted rows accepted")
	}
	if err := sr.ReadNumericPoints(0, []int{0}, out[:0]); err == nil {
		t.Error("length mismatch accepted")
	}
	// Close releases shard mappings; reads fall back to positioned reads.
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sr.ReadNumericPoints(0, []int{1, 450}, out[:2]); err != nil {
		t.Fatalf("post-Close point read: %v", err)
	}
	if out[0] != want[1] || out[1] != want[450] {
		t.Errorf("post-Close points = %v", out[:2])
	}
}

func TestShardedSnapSegment(t *testing.T) {
	// Shard layout: [0,1000) v1, [1000,3500) v2 groups of 512,
	// [3500,4200) v1. Preferred cuts inside shard 1 are 1000 + k·512.
	path, _ := writeShardedFixture(t, 11, []int{1000, 2500, 700},
		[]int{DiskFormatV1, DiskFormatV2, DiskFormatV1}, 512)
	sr, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if got := sr.ScanAlignment(); got != 512 {
		t.Fatalf("ScanAlignment = %d, want 512 (coarsest shard unit)", got)
	}
	cases := []struct{ cut, want int }{
		{-5, 0},
		{0, 0},
		{4200, 4200},
		{9999, 4200},
		{500, 500},   // v1 shard: cuts stay put
		{1100, 1000}, // rounds down to the shard boundary
		{1300, 1512}, // nearest group boundary is 1000+512
		{2024, 2024}, // exactly on a group boundary (1000+2·512)
		{3490, 3500}, // clamps to the shard end, not past it
		{3600, 3600}, // trailing v1 shard: identity
	}
	for _, c := range cases {
		if got := sr.SnapSegment(c.cut); got != c.want {
			t.Errorf("SnapSegment(%d) = %d, want %d", c.cut, got, c.want)
		}
	}
}

func TestShardedWriterPolicies(t *testing.T) {
	schema := bankSchema()
	row := func(i int) ([]float64, []bool) {
		return []float64{float64(i), float64(i % 7)}, []bool{i%2 == 0, i%3 == 0}
	}
	t.Run("count-based", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "rel.oprs")
		sw, err := NewShardedWriter(path, schema, ShardedWriterOptions{Shards: 4, TotalRows: 1000, GroupRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			nums, bools := row(i)
			if err := sw.Append(nums, bools); err != nil {
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
		if sr.NumShards() != 4 || sr.NumTuples() != 1000 {
			t.Fatalf("shards=%d rows=%d, want 4/1000", sr.NumShards(), sr.NumTuples())
		}
		nums, _ := collectRange(t, sr, 0, 1000)
		for i, v := range nums {
			if v != float64(i) {
				t.Fatalf("row %d = %g: global order not preserved", i, v)
			}
		}
	})
	t.Run("size-based-overflow", func(t *testing.T) {
		// RowsPerShard splitting keeps creating shards as rows arrive.
		dir := t.TempDir()
		path := filepath.Join(dir, "rel.oprs")
		sw, err := NewShardedWriter(path, schema, ShardedWriterOptions{RowsPerShard: 300, Format: DiskFormatV1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			nums, bools := row(i)
			if err := sw.Append(nums, bools); err != nil {
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
		if sr.NumShards() != 4 { // 300+300+300+100
			t.Fatalf("NumShards = %d, want 4", sr.NumShards())
		}
		if sr.cur.Load().shards[0].Version() != DiskFormatV1 {
			t.Errorf("shard format = %d, want v1", sr.cur.Load().shards[0].Version())
		}
	})
	t.Run("failed-rollover-is-sticky", func(t *testing.T) {
		// A shard rollover that fails (the directory vanished between
		// shards) must poison the writer: later Appends and Close return
		// errors — no panic, and no manifest committing a stream with a
		// silent gap.
		dir := t.TempDir()
		sub := filepath.Join(dir, "sub")
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(sub, "rel.oprs")
		sw, err := NewShardedWriter(path, schema, ShardedWriterOptions{RowsPerShard: 2, Format: DiskFormatV1})
		if err != nil {
			t.Fatal(err)
		}
		nums, bools := row(0)
		for i := 0; i < 2; i++ {
			if err := sw.Append(nums, bools); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.RemoveAll(sub); err != nil {
			t.Fatal(err)
		}
		if err := sw.Append(nums, bools); err == nil { // rollover into removed dir
			t.Fatal("rollover into removed directory succeeded")
		}
		if err := sw.Append(nums, bools); err == nil {
			t.Error("Append after failed rollover succeeded")
		}
		if err := sw.Close(); err == nil {
			t.Error("Close after failed rollover committed a gapped manifest")
		}
	})
	t.Run("sticky-close-error", func(t *testing.T) {
		// A Close that fails (manifest directory vanished) must keep
		// failing on retry, not report success with no manifest written.
		dir := t.TempDir()
		sub := filepath.Join(dir, "sub")
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(sub, "rel.oprs")
		sw, err := NewShardedWriter(path, schema, ShardedWriterOptions{Shards: 1, TotalRows: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Append([]float64{1, 2}, []bool{true, false}); err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(sub); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err == nil {
			t.Fatal("Close into a removed directory succeeded")
		}
		if err := sw.Close(); err == nil {
			t.Error("second Close after a failed Close reported success")
		}
	})
	t.Run("manifest-mode-matches-shards", func(t *testing.T) {
		// The manifest is staged in a 0600 temp file; after Close it must
		// carry the same umask-derived mode as the shard files, or a
		// second user who can read every shard still can't open the
		// relation.
		dir := t.TempDir()
		path := filepath.Join(dir, "perm.oprs")
		sw, err := NewShardedWriter(path, schema, ShardedWriterOptions{Shards: 1, TotalRows: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		shardSt, err := os.Stat(filepath.Join(dir, "perm-s00000.opr"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode().Perm() != shardSt.Mode().Perm() {
			t.Errorf("manifest mode = %v, shard mode = %v; want equal", st.Mode().Perm(), shardSt.Mode().Perm())
		}
	})
	t.Run("empty", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "empty.oprs")
		sw, err := NewShardedWriter(path, schema, ShardedWriterOptions{Shards: 3, TotalRows: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		sr, err := OpenSharded(path)
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Close()
		if sr.NumTuples() != 0 || sr.NumShards() != 1 {
			t.Errorf("empty relation: %d tuples in %d shards", sr.NumTuples(), sr.NumShards())
		}
	})
	t.Run("bad-options", func(t *testing.T) {
		dir := t.TempDir()
		cases := []ShardedWriterOptions{
			{},                                     // no policy
			{RowsPerShard: 10, Shards: 2},          // both policies
			{Shards: 2, TotalRows: -1},             // negative total
			{Shards: 2, TotalRows: 10, Format: 99}, // unknown format
		}
		for i, o := range cases {
			if _, err := NewShardedWriter(filepath.Join(dir, fmt.Sprintf("bad%d.oprs", i)), schema, o); err == nil {
				t.Errorf("case %d (%+v): expected error", i, o)
			}
		}
	})
}

func TestConvertToShardedAndBack(t *testing.T) {
	path, mem := writeTestFile(t, 2000, 9)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(path)
	manifest := filepath.Join(dir, "sharded.oprs")
	if err := ConvertToSharded(dr, manifest, 3, DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.NumShards() != 3 || sr.NumTuples() != 2000 {
		t.Fatalf("sharded: %d shards, %d rows", sr.NumShards(), sr.NumTuples())
	}
	want, _ := mem.NumericColumn(0)
	nums, _ := collectRange(t, sr, 0, 2000)
	for i := range nums {
		if nums[i] != want[i] {
			t.Fatalf("row %d differs after sharding", i)
		}
	}
	// Back to a single file through the generic path.
	single := filepath.Join(dir, "single.opr")
	if err := ConvertFile(sr, single, DiskFormatV1); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDisk(single)
	if err != nil {
		t.Fatal(err)
	}
	nums2, _ := collectRange(t, back, 0, 2000)
	for i := range nums2 {
		if nums2[i] != want[i] {
			t.Fatalf("row %d differs after round trip", i)
		}
	}
	// Self-aliasing destinations are refused for both directions, and a
	// sharded conversion refuses ANY pre-existing destination file — it
	// cannot overwrite a multi-file relation atomically, so it must
	// never truncate or delete files it did not create.
	if err := ConvertFile(sr, sr.StoragePaths()[1], DiskFormatV2); err == nil {
		t.Error("converting a sharded relation onto its own shard accepted")
	}
	if err := ConvertToSharded(sr, manifest, 2, DiskFormatV2); err == nil {
		t.Error("converting a sharded relation onto its own manifest accepted")
	}
	preShard := sr.StoragePaths()[1] // an existing shard file
	before, err := os.ReadFile(preShard)
	if err != nil {
		t.Fatal(err)
	}
	clobber := filepath.Join(dir, "sharded.oprs") // same manifest -> same shard names
	if err := ConvertToSharded(back, clobber, 3, DiskFormatV2); err == nil {
		t.Error("sharded conversion over an existing relation accepted")
	}
	after, err := os.ReadFile(preShard)
	if err != nil {
		t.Fatalf("pre-existing shard destroyed by refused conversion: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("refused sharded conversion modified a pre-existing shard file")
	}
	// A failed sharded conversion cleans up everything it created.
	if err := os.Truncate(single, 100); err != nil {
		t.Fatal(err)
	}
	failed := filepath.Join(dir, "failed.oprs")
	if err := ConvertToSharded(back, failed, 2, DiskFormatV2); err == nil {
		t.Fatal("conversion from truncated source succeeded")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "failed*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("failed sharded conversion left %v behind", leftovers)
	}
}

func TestOpenDataSniffsBackends(t *testing.T) {
	path, _ := writeTestFile(t, 100, 3)
	rel, err := OpenData(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rel.(*DiskRelation); !ok {
		t.Errorf("single file opened as %T", rel)
	}
	mPath, _ := writeShardedFixture(t, 3, []int{50, 50}, []int{DiskFormatV2, DiskFormatV2}, 0)
	rel2, err := OpenData(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rel2.(*ShardedRelation); !ok {
		t.Errorf("manifest opened as %T", rel2)
	}
	rel2.Close()
	if _, err := OpenData(filepath.Join(t.TempDir(), "missing.opr")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestShardManifestCorruption exercises the targeted failure modes a
// drifted or damaged manifest can exhibit: each must fail at open with
// a descriptive error, never a panic or a silently wrong relation. A
// grow's uncommitted staged tail (led by a NUL) is not damage: the
// manifest opens as its committed shards only.
func TestShardManifestCorruption(t *testing.T) {
	dir := t.TempDir()
	schema := bankSchema()
	mkShard := func(name string, rows int) {
		t.Helper()
		dw, err := NewDiskWriterV2(filepath.Join(dir, name), schema, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := dw.Append([]float64{float64(i), 1}, []bool{true, false}); err != nil {
				t.Fatal(err)
			}
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mkShard("a.opr", 10)
	mkShard("b.opr", 20)
	// A shard with a different schema.
	dw, err := NewDiskWriter(filepath.Join(dir, "other.opr"), Schema{{Name: "X", Kind: Numeric}})
	if err != nil {
		t.Fatal(err)
	}
	dw.Append([]float64{1}, nil)
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		manifest string
		wantErr  string
		wantRows int // for valid manifests
	}{
		{"valid", "OPTSHARD 1\nshard 10 a.opr\nshard 20 b.opr\n", "", 30},
		{"comments-and-blanks", "OPTSHARD 1\n\n# part one\nshard 10 a.opr\n", "", 10},
		{"staged-tail", "OPTSHARD 1\nshard 10 a.opr\n\x00hard 20 b.opr\n", "", 10},
		{"torn-staged-tail", "OPTSHARD 1\nshard 10 a.opr\n\x00hard 2", "", 10},
		{"staged-tail-after-missing-newline", "OPTSHARD 1\nshard 10 a.opr\x00shard 20 b.opr\n", "", 10},
		{"staged-tail-after-committed-garbage", "OPTSHARD 1\nshard 10 a.opr\nshard 5 gone.opr\n\x00hard 20 b.opr\n", "shard 1", 0},
		{"staged-header", "\x00PTSHARD 1\nshard 10 a.opr\n", "empty shard manifest", 0},
		{"bad-magic", "NOTSHARD 1\nshard 10 a.opr\n", "not a shard manifest", 0},
		{"bad-version", "OPTSHARD 9\nshard 10 a.opr\n", "version", 0},
		{"no-shards", "OPTSHARD 1\n# empty\n", "no shards", 0},
		{"missing-file", "OPTSHARD 1\nshard 10 a.opr\nshard 5 gone.opr\n", "shard 1", 0},
		{"row-count-mismatch", "OPTSHARD 1\nshard 10 a.opr\nshard 21 b.opr\n", "manifest declares", 0},
		{"mixed-schemas", "OPTSHARD 1\nshard 10 a.opr\nshard 1 other.opr\n", "schema", 0},
		{"malformed-line", "OPTSHARD 1\nshard 10\n", "malformed", 0},
		{"negative-rows", "OPTSHARD 1\nshard -3 a.opr\n", "row count", 0},
		{"empty-path", "OPTSHARD 1\nshard 10  \n", "malformed", 0},
		{"empty-file", "", "empty shard manifest", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := filepath.Join(dir, c.name+".oprs")
			if err := os.WriteFile(p, []byte(c.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			sr, err := OpenSharded(p)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid manifest rejected: %v", err)
				}
				defer sr.Close()
				if sr.NumTuples() != c.wantRows {
					t.Errorf("opened %d rows, want %d", sr.NumTuples(), c.wantRows)
				}
				return
			}
			if err == nil {
				sr.Close()
				t.Fatalf("corrupt manifest accepted")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestShardedScanRaceConcurrent runs overlapping full scans plus point
// reads on a sharded relation from several goroutines; meaningful under
// -race.
func TestShardedScanRaceConcurrent(t *testing.T) {
	path, _ := writeShardedFixture(t, 17, []int{900, 900, 900}, []int{DiskFormatV2, DiskFormatV2, DiskFormatV1}, 256)
	sr, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	done := make(chan error, 4)
	for g := 0; g < 2; g++ {
		go func() {
			sum := 0.0
			done <- sr.Scan(ColumnSet{Numeric: []int{0}}, func(b *Batch) error {
				for _, v := range b.Numeric[0][:b.Len] {
					sum += v
				}
				return nil
			})
		}()
		go func() {
			out := make([]float64, 3)
			done <- sr.ReadNumericPoints(0, []int{10, 1200, 2600}, out)
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestShardedPrunedScanIgnoresConcurrentScans pins zone-map pruning
// across shards: on a clustered v3 shard set, a pruned scan whose
// predicate refutes most block groups delivers only the two groups the
// flag band touches, reports every other row as skipped, and counts
// only the delivered groups' bytes.
func TestShardedPrunedScanIgnoresConcurrentScans(t *testing.T) {
	const n, lo, hi, gr = 10000, 4200, 4800, 500
	path := filepath.Join(t.TempDir(), "clustered.oprs")
	schema := Schema{{Name: "ID", Kind: Numeric}, {Name: "V", Kind: Numeric}, {Name: "Flag", Kind: Boolean}}
	sw, err := NewShardedWriter(path, schema, ShardedWriterOptions{RowsPerShard: 2500, Format: DiskFormatV3, GroupRows: gr})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sw.Append([]float64{float64(i), float64(i % 7)}, []bool{i >= lo && i < hi}); err != nil {
			sw.Discard()
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
	pred := &Predicate{Bools: []BoolPredicate{{Attr: 2, Want: true}}}
	cols := ColumnSet{Numeric: []int{0, 1}, Bool: []int{2}}
	type result struct {
		delivered, skipped, matches int
		bytes                       int64
	}
	var got result
	err = sr.ScanRangePruned(0, n, cols, pred,
		func(rows int) error { got.skipped += rows; return nil },
		func(b *Batch) error {
			got.delivered += b.Len
			for _, f := range b.Bool[0][:b.Len] {
				if f {
					got.matches++
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	got.bytes = sr.BytesRead()
	// The flag band [4200, 4800) touches groups 8 and 9 of 20.
	want := result{delivered: 2 * gr, skipped: n - 2*gr, matches: hi - lo, bytes: 1632}
	if got != want {
		t.Fatalf("pruned scan = %+v, want %+v", got, want)
	}
}
