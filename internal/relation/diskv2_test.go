package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestFileV2 writes n pseudo-random tuples in v2 format with the
// given block-group size and returns the path plus the in-memory twin.
// The same (n, seed) passed to writeTestFile yields identical data in
// v1 format.
func writeTestFileV2(t *testing.T, n int, seed int64, groupRows int) (string, *MemoryRelation) {
	t.Helper()
	schema := bankSchema()
	path := filepath.Join(t.TempDir(), "data_v2.opr")
	dw, err := NewDiskWriterV2(path, schema, groupRows)
	if err != nil {
		t.Fatal(err)
	}
	mem := MustNewMemoryRelation(schema)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
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
	return path, mem
}

func TestDiskV2RoundTrip(t *testing.T) {
	// Small odd group size: several full groups, a partial tail group,
	// and group boundaries that do not coincide with batch boundaries.
	n := 3*1000 + 137
	path, mem := writeTestFileV2(t, n, 1, 1000)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Version() != DiskFormatV2 {
		t.Fatalf("Version = %d, want %d", dr.Version(), DiskFormatV2)
	}
	if dr.GroupRows() != 1000 {
		t.Fatalf("GroupRows = %d, want 1000", dr.GroupRows())
	}
	if dr.NumTuples() != n {
		t.Fatalf("NumTuples = %d, want %d", dr.NumTuples(), n)
	}
	cols := ColumnSet{Numeric: []int{0, 1}, Bool: []int{2, 3}}
	wantBal, _ := mem.NumericColumn(0)
	wantAge, _ := mem.NumericColumn(1)
	wantCL, _ := mem.BoolColumn(2)
	wantAW, _ := mem.BoolColumn(3)
	at := 0
	err = dr.Scan(cols, func(b *Batch) error {
		for row := 0; row < b.Len; row++ {
			if b.Numeric[0][row] != wantBal[at] || b.Numeric[1][row] != wantAge[at] {
				return fmt.Errorf("numeric mismatch at row %d", at)
			}
			if b.Bool[0][row] != wantCL[at] || b.Bool[1][row] != wantAW[at] {
				return fmt.Errorf("bool mismatch at row %d", at)
			}
			at++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if at != n {
		t.Fatalf("scanned %d rows, want %d", at, n)
	}
}

func TestDiskV2DefaultGroupRows(t *testing.T) {
	path, _ := writeTestFileV2(t, 10, 1, 0)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if dr.GroupRows() != DefaultGroupRows {
		t.Errorf("GroupRows = %d, want %d", dr.GroupRows(), DefaultGroupRows)
	}
}

func TestDiskV2ScanRangeMatchesMemory(t *testing.T) {
	n := 2500
	path, mem := writeTestFileV2(t, n, 2, 512)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(r RangeScanner, start, end int, cols ColumnSet) ([]float64, []bool) {
		var nums []float64
		var bools []bool
		if err := r.ScanRange(start, end, cols, func(b *Batch) error {
			if len(cols.Numeric) > 0 {
				nums = append(nums, b.Numeric[0][:b.Len]...)
			}
			if len(cols.Bool) > 0 {
				bools = append(bools, b.Bool[0][:b.Len]...)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return nums, bools
	}
	ranges := [][2]int{{0, n}, {17, 430}, {511, 513}, {512, 1024}, {1000, 1001}, {2499, 2500}, {500, 500}, {3, 2400}}
	for _, rg := range ranges {
		for _, cols := range []ColumnSet{
			{Numeric: []int{1}},
			{Bool: []int{3}},
			{Numeric: []int{0}, Bool: []int{2}},
		} {
			gotN, gotB := collect(dr, rg[0], rg[1], cols)
			wantN, wantB := collect(mem, rg[0], rg[1], cols)
			if len(gotN) != len(wantN) || len(gotB) != len(wantB) {
				t.Fatalf("range %v cols %v: got %d/%d values, want %d/%d", rg, cols, len(gotN), len(gotB), len(wantN), len(wantB))
			}
			for i := range gotN {
				if gotN[i] != wantN[i] {
					t.Fatalf("range %v: numeric %d differs", rg, i)
				}
			}
			for i := range gotB {
				if gotB[i] != wantB[i] {
					t.Fatalf("range %v: bool %d differs", rg, i)
				}
			}
		}
	}
}

func TestDiskV2SpecialFloatValues(t *testing.T) {
	schema := Schema{{Name: "X", Kind: Numeric}, {Name: "B", Kind: Boolean}}
	path := filepath.Join(t.TempDir(), "special_v2.opr")
	dw, err := NewDiskWriterV2(path, schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5, 42}
	for i, v := range values {
		if err := dw.Append([]float64{v}, []bool{i%3 == 0}); err != nil {
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
	at := 0
	err = dr.Scan(ColumnSet{Numeric: []int{0}, Bool: []int{1}}, func(b *Batch) error {
		for row := 0; row < b.Len; row++ {
			got, want := b.Numeric[0][row], values[at]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("value %d: got %v (bits %x), want %v", at, got, math.Float64bits(got), want)
			}
			if b.Bool[0][row] != (at%3 == 0) {
				t.Errorf("bool %d wrong", at)
			}
			at++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if at != len(values) {
		t.Fatalf("scanned %d rows, want %d", at, len(values))
	}
}

func TestDiskV2Empty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty_v2.opr")
	dw, err := NewDiskWriterV2(path, bankSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if dr.NumTuples() != 0 {
		t.Fatalf("NumTuples = %d, want 0", dr.NumTuples())
	}
	if err := dr.Scan(ColumnSet{Numeric: []int{0}}, func(*Batch) error {
		return fmt.Errorf("callback on empty relation")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskV2ScanErrorPropagates(t *testing.T) {
	path, _ := writeTestFileV2(t, 5000, 3, 1024)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	calls := 0
	err = dr.Scan(ColumnSet{Numeric: []int{0}}, func(b *Batch) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("scan error = %v, want %v", err, boom)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times after error, want 2", calls)
	}
}

// TestDiskV2MatchesV1 pins that the two formats hold bit-identical
// data: the same row stream written through both writers scans back
// equal, column for column.
func TestDiskV2MatchesV1(t *testing.T) {
	n := 9000
	v1Path, _ := writeTestFile(t, n, 11)
	v2Path, _ := writeTestFileV2(t, n, 11, 2048)
	v1, err := OpenDisk(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := OpenDisk(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	cols := ColumnSet{Numeric: []int{0, 1}, Bool: []int{2, 3}}
	type rowdata struct {
		n0, n1 float64
		b0, b1 bool
	}
	read := func(dr *DiskRelation) []rowdata {
		var out []rowdata
		if err := dr.Scan(cols, func(b *Batch) error {
			for r := 0; r < b.Len; r++ {
				out = append(out, rowdata{b.Numeric[0][r], b.Numeric[1][r], b.Bool[0][r], b.Bool[1][r]})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	r1, r2 := read(v1), read(v2)
	if len(r1) != n || len(r2) != n {
		t.Fatalf("read %d v1 rows, %d v2 rows, want %d", len(r1), len(r2), n)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row %d differs between formats: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestConvertDisk(t *testing.T) {
	n := 5000
	v1Path, mem := writeTestFile(t, n, 21)
	dir := t.TempDir()

	v2Path := filepath.Join(dir, "conv_v2.opr")
	if err := ConvertDisk(v1Path, v2Path, DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	backPath := filepath.Join(dir, "conv_back_v1.opr")
	if err := ConvertDisk(v2Path, backPath, DiskFormatV1); err != nil {
		t.Fatal(err)
	}
	// Converted files must carry the source file's mode, not the 0600 of
	// the temp file they were staged in (and not a forced 0644, which
	// would expose a private 0600 source's data).
	srcSt, err := os.Stat(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(v2Path); err != nil || st.Mode().Perm() != srcSt.Mode().Perm() {
		t.Errorf("converted file mode = %v (err %v), want source's %v", st.Mode().Perm(), err, srcSt.Mode().Perm())
	}
	private := filepath.Join(dir, "private.opr")
	if err := os.Chmod(v1Path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := ConvertDisk(v1Path, private, DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(private); err != nil || st.Mode().Perm() != 0o600 {
		t.Errorf("conversion of a 0600 source produced mode %v (err %v), want 0600 preserved", st.Mode().Perm(), err)
	}
	if err := os.Chmod(v1Path, srcSt.Mode().Perm()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v2Path, backPath} {
		dr, err := OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		if dr.NumTuples() != n {
			t.Fatalf("%s: NumTuples = %d, want %d", path, dr.NumTuples(), n)
		}
		want, _ := mem.NumericColumn(0)
		wantB, _ := mem.BoolColumn(3)
		at := 0
		err = dr.Scan(ColumnSet{Numeric: []int{0}, Bool: []int{3}}, func(b *Batch) error {
			for r := 0; r < b.Len; r++ {
				if b.Numeric[0][r] != want[at] || b.Bool[0][r] != wantB[at] {
					return fmt.Errorf("row %d differs after convert", at)
				}
				at++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ConvertDisk(v1Path, filepath.Join(dir, "x.opr"), 99); err == nil {
		t.Errorf("unknown target version accepted")
	}
	// In-place conversion must be refused BEFORE the writer truncates
	// the source, including when dst names the source through an
	// unclean path.
	if err := ConvertDisk(v1Path, v1Path, DiskFormatV2); err == nil {
		t.Errorf("self-conversion accepted")
	}
	srcDir := filepath.Dir(v1Path)
	unclean := filepath.Join(srcDir, "..", filepath.Base(srcDir), filepath.Base(v1Path))
	if err := ConvertDisk(v1Path, unclean, DiskFormatV2); err == nil {
		t.Errorf("self-conversion via unclean path accepted")
	}
	if dr, err := OpenDisk(v1Path); err != nil || dr.NumTuples() != n {
		t.Fatalf("source damaged by refused self-conversion: %v", err)
	}
}

// TestConvertDiskFailureSafe pins the temp-file-and-rename discipline:
// a conversion that fails MID-COPY (the source turns out to be
// truncated once the scan reaches its tail) must leave no partial dst
// behind — and must leave a PRE-EXISTING dst byte-for-byte untouched,
// since the output only ever reaches dst via rename after a successful
// Close.
func TestConvertDiskFailureSafe(t *testing.T) {
	n := 3 * DefaultBatchSize
	srcPath, _ := writeTestFile(t, n, 23)
	src, err := OpenDisk(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the already-open source mid-data: the conversion scan
	// fails partway through the copy, after rows have been written.
	st, err := os.Stat(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(srcPath, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Case 1: dst did not exist — nothing may be left behind.
	dst := filepath.Join(dir, "out.opr")
	if err := ConvertDiskFrom(src, dst, DiskFormatV2); err == nil {
		t.Fatal("conversion from truncated source succeeded")
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Errorf("failed conversion left dst behind: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Errorf("failed conversion left temp files behind: %v", left)
	}

	// Case 2: dst existed — it must survive unmodified.
	goodPath, _ := writeTestFileV2(t, 100, 5, 64)
	want, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ConvertDiskFrom(src, goodPath, DiskFormatV1); err == nil {
		t.Fatal("conversion from truncated source succeeded")
	}
	got, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("failed conversion modified the pre-existing destination")
	}
	if dr, err := OpenDisk(goodPath); err != nil || dr.NumTuples() != 100 {
		t.Errorf("pre-existing destination unreadable after failed conversion: %v", err)
	}
}

// v2HeaderOffsets returns the file offsets of the v2 header fields for
// the bank schema test files: numRows, groupRows, numGroups, dirOff.
func v2HeaderOffsets(s Schema) (rowsOff, groupRowsOff, numGroupsOff, dirOffOff int64) {
	rowsOff = 4 + 4 + 4
	for _, a := range s {
		rowsOff += 1 + 2 + int64(len(a.Name))
	}
	return rowsOff, rowsOff + 8, rowsOff + 12, rowsOff + 16
}

// TestDiskV2CorruptionErrors patches individual v2 header and directory
// fields and checks each corruption is rejected with a clear error, not
// a panic or an accepted file.
func TestDiskV2CorruptionErrors(t *testing.T) {
	path, _ := writeTestFileV2(t, 2500, 5, 1000)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, groupRowsOff, numGroupsOff, dirOffOff := v2HeaderOffsets(bankSchema())
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
		errHint string
	}{
		{"zero group size", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[groupRowsOff:], 0)
			return d
		}, "group size"},
		{"absurd group size", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[groupRowsOff:], 1<<30)
			return d
		}, "group size"},
		{"group count mismatch", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[numGroupsOff:], 99)
			return d
		}, "block groups"},
		{"directory offset beyond file", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[dirOffOff:], uint64(len(d))+1000)
			return d
		}, "truncated"},
		{"directory offset inside header", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[dirOffOff:], 3)
			return d
		}, "directory offset"},
		{"truncated mid-directory", func(d []byte) []byte {
			return d[:len(d)-7]
		}, "truncated"},
		{"truncated mid-data", func(d []byte) []byte {
			return d[:len(d)/2]
		}, ""},
		{"group offset out of bounds", func(d []byte) []byte {
			dirOff := binary.LittleEndian.Uint64(d[dirOffOff:])
			binary.LittleEndian.PutUint64(d[dirOff:], uint64(len(d))) // first entry off
			return d
		}, "outside data region"},
		{"group row count corrupted", func(d []byte) []byte {
			dirOff := binary.LittleEndian.Uint64(d[dirOffOff:])
			binary.LittleEndian.PutUint32(d[dirOff+8:], 7) // first entry rows
			return d
		}, "rows"},
		{"wide groups sharing one offset", func([]byte) []byte {
			// A one-row file of a wide schema whose header then declares
			// many one-row groups, every directory entry pointing at the
			// one real group: each entry fits the data region on its own,
			// but together they would need groups × columns block entries.
			wide := make(Schema, 1024)
			for i := range wide {
				wide[i] = Attribute{Name: fmt.Sprintf("a%d", i), Kind: Numeric}
			}
			p := filepath.Join(t.TempDir(), "wide.opr")
			dw, err := NewDiskWriterV2(p, wide, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := dw.Append(make([]float64, len(wide)), nil); err != nil {
				t.Fatal(err)
			}
			if err := dw.Close(); err != nil {
				t.Fatal(err)
			}
			d, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			const groups = 64
			rowsOff, _, numGroupsOff, dirOffOff := v2HeaderOffsets(wide)
			dataOff := uint64(rowsOff + 24)
			binary.LittleEndian.PutUint64(d[rowsOff:], groups)
			binary.LittleEndian.PutUint32(d[numGroupsOff:], groups)
			binary.LittleEndian.PutUint64(d[dirOffOff:], uint64(len(d)))
			var entry [12]byte
			binary.LittleEndian.PutUint64(entry[:], dataOff)
			binary.LittleEndian.PutUint32(entry[8:], 1)
			for g := 0; g < groups; g++ {
				d = append(d, entry[:]...)
			}
			return d
		}, "do not fit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.corrupt(append([]byte(nil), valid...))
			p := filepath.Join(t.TempDir(), "corrupt.opr")
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenDisk(p)
			if err == nil {
				t.Fatalf("corrupt file accepted")
			}
			if tc.errHint != "" && !strings.Contains(err.Error(), tc.errHint) {
				t.Errorf("error %q does not mention %q", err, tc.errHint)
			}
		})
	}
}

// TestConcurrentScanRangeBothFormats pins that disjoint ScanRange
// segments on one shared *DiskRelation share no mutable state, for both
// formats — run under -race this is the Algorithm 3.2 access pattern.
func TestConcurrentScanRangeBothFormats(t *testing.T) {
	n := 20000
	v1Path, mem := writeTestFile(t, n, 13)
	v2Path, _ := writeTestFileV2(t, n, 13, 4096)
	want := 0.0
	col, _ := mem.NumericColumn(0)
	for _, v := range col {
		want += v
	}
	for _, tc := range []struct {
		name string
		path string
	}{{"v1", v1Path}, {"v2", v2Path}} {
		t.Run(tc.name, func(t *testing.T) {
			dr, err := OpenDisk(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			parts := 8
			sums := make([]float64, parts)
			errs := make(chan error, parts)
			for p := 0; p < parts; p++ {
				go func(p int) {
					start, end := p*n/parts, (p+1)*n/parts
					errs <- dr.ScanRange(start, end, ColumnSet{Numeric: []int{0}, Bool: []int{2}}, func(b *Batch) error {
						for _, v := range b.Numeric[0][:b.Len] {
							sums[p] += v
						}
						return nil
					})
				}(p)
			}
			for p := 0; p < parts; p++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			total := 0.0
			for _, s := range sums {
				total += s
			}
			if math.Abs(total-want) > 1e-6*math.Abs(want) {
				t.Errorf("parallel scan sum = %g, want %g", total, want)
			}
			if got := dr.BytesRead(); got <= 0 {
				t.Errorf("BytesRead = %d after scans, want > 0", got)
			}
		})
	}
}

// TestDiskV2SelectiveScanBytes pins the column byte model of the
// deterministic counted-I/O accounting at d=8 numeric attributes: v1
// (row-major) charges the full 65-byte row for any column selection,
// v2 (column-major) charges exactly 8 bytes per selected column — so 2
// selected columns read at least 2x fewer bytes on v2 (~4x: 16 of 65
// bytes per tuple).
func TestDiskV2SelectiveScanBytes(t *testing.T) {
	schema := Schema{}
	for i := 0; i < 8; i++ {
		schema = append(schema, Attribute{Name: fmt.Sprintf("N%d", i), Kind: Numeric})
	}
	schema = append(schema, Attribute{Name: "B", Kind: Boolean})
	n := 30000
	dir := t.TempDir()
	v1Path := filepath.Join(dir, "wide_v1.opr")
	v2Path := filepath.Join(dir, "wide_v2.opr")
	w1, err := NewDiskWriter(v1Path, schema)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewDiskWriterV2(v2Path, schema, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	nums := make([]float64, 8)
	for i := 0; i < n; i++ {
		for j := range nums {
			nums[j] = rng.NormFloat64()
		}
		b := []bool{rng.Intn(2) == 0}
		if err := w1.Append(nums, b); err != nil {
			t.Fatal(err)
		}
		if err := w2.Append(nums, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	v1, err := OpenDisk(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := OpenDisk(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(dr *DiskRelation, cols ColumnSet) int64 {
		dr.ResetBytesRead()
		sum := 0.0
		if err := dr.Scan(cols, func(b *Batch) error {
			for _, v := range b.Numeric[0][:b.Len] {
				sum += v
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return dr.BytesRead()
	}
	for _, sel := range [][]int{{0}, {2, 5}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		cols := ColumnSet{Numeric: sel}
		v1Bytes, v2Bytes := scan(v1, cols), scan(v2, cols)
		if v1Bytes != int64(n)*65 { // 8 floats + 1 packed bool byte
			t.Errorf("%d cols: v1 bytes = %d, want %d", len(sel), v1Bytes, int64(n)*65)
		}
		if want := int64(n) * 8 * int64(len(sel)); v2Bytes != want { // exactly the selected columns
			t.Errorf("%d cols: v2 bytes = %d, want %d", len(sel), v2Bytes, want)
		}
		if len(sel) == 2 && v2Bytes*2 > v1Bytes {
			t.Errorf("v2 selective scan reads %d bytes, v1 %d: want >= 2x reduction", v2Bytes, v1Bytes)
		}
	}
}

// TestDiskV2EarlyAbortBytesDeterministic pins that BytesRead is a
// deterministic cost model even when the caller aborts the scan early:
// only delivered windows are charged, never a window past the one the
// callback stopped. Both block formats run through the one scan loop;
// the v3 file has a raw and a delta-coded numeric column.
func TestDiskV2EarlyAbortBytesDeterministic(t *testing.T) {
	v2Path, _ := writeTestFileV2(t, 20000, 7, 1000)
	v3Path, _ := writeTestFileV3(t, 20000, 7, 1000)
	for _, path := range []string{v2Path, v3Path} {
		dr, err := OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		stop := fmt.Errorf("stop")
		abortingScan := func() int64 {
			dr.ResetBytesRead()
			batches := 0
			err := dr.Scan(ColumnSet{Numeric: []int{0, 1}, Bool: []int{2}}, func(b *Batch) error {
				batches++
				if batches == 2 {
					return stop
				}
				return nil
			})
			if err != stop {
				t.Fatalf("v%d: scan error = %v, want %v", dr.Version(), err, stop)
			}
			return dr.BytesRead()
		}
		first := abortingScan()
		if first <= 0 {
			t.Fatalf("v%d: aborted scan counted %d bytes, want > 0", dr.Version(), first)
		}
		for i := 0; i < 20; i++ {
			if got := abortingScan(); got != first {
				t.Fatalf("v%d: aborted scan counted %d bytes on repeat %d, want %d every time", dr.Version(), got, i, first)
			}
		}
		dr.Close()
	}
}

func TestDiskV2ScanAlignment(t *testing.T) {
	v1Path, _ := writeTestFile(t, 100, 6)
	v2Path, _ := writeTestFileV2(t, 100, 6, 64)
	v1, err := OpenDisk(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := OpenDisk(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.ScanAlignment(); got != 1 {
		t.Errorf("v1 ScanAlignment = %d, want 1", got)
	}
	if got := v2.ScanAlignment(); got != 64 {
		t.Errorf("v2 ScanAlignment = %d, want 64", got)
	}
}

func TestNewDiskWriterV2Errors(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewDiskWriterV2(filepath.Join(dir, "a.opr"), Schema{}, 0); err == nil {
		t.Errorf("empty schema accepted")
	}
	if _, err := NewDiskWriterV2(filepath.Join(dir, "b.opr"), bankSchema(), -1); err == nil {
		t.Errorf("negative group size accepted")
	}
	if _, err := NewDiskWriterV2(filepath.Join(dir, "c.opr"), bankSchema(), maxGroupRows+1); err == nil {
		t.Errorf("oversized group accepted")
	}
	path := filepath.Join(dir, "d.opr")
	dw, err := NewDiskWriterV2(path, bankSchema(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Append([]float64{1}, nil); err == nil {
		t.Errorf("wrong-shape append accepted")
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Errorf("double close should be a no-op, got %v", err)
	}
	if err := dw.Append([]float64{1, 2}, []bool{true, false}); err == nil {
		t.Errorf("append after close accepted")
	}
}

// TestDiskV2WindowByteModel pins the batch-sized windows of
// the block-group scan against the per-group byte model, on a v2 file
// and on a v3 file with the same rows (Balance raw, Age delta-coded).
// Block groups of 20000 rows (not a multiple of DefaultBatchSize) hold
// two full windows and a short one each, and the last group is
// partial. Ranges start off byte boundaries, sit inside one window,
// cross window and group boundaries, and end mid-window; each must
// deliver exactly Scan's rows and charge, per block group it touches,
// rows × 8 per selected raw numeric block, the whole encLen of every
// selected encoded block, and the Boolean byte span [first/8,
// ceil(last/8)) of every selected Boolean.
func TestDiskV2WindowByteModel(t *testing.T) {
	const n, groupRows = 50000, 20000
	v2Path, _ := writeTestFileV2(t, n, 11, groupRows)
	v3Path, _ := writeTestFileV3(t, n, 11, groupRows)
	for _, path := range []string{v2Path, v3Path} {
		dr, err := OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		defer dr.Close()
		t.Run(fmt.Sprintf("v%d", dr.Version()), func(t *testing.T) {
			checkWindowByteModel(t, dr, n, groupRows)
		})
	}
}

// checkWindowByteModel runs TestDiskV2WindowByteModel's ranges over dr.
func checkWindowByteModel(t *testing.T, dr *DiskRelation, n, groupRows int) {
	encoded := false
	collect := func(scan func(ColumnSet, func(*Batch) error) error, cols ColumnSet) ([][]float64, [][]bool) {
		nums := make([][]float64, len(cols.Numeric))
		bools := make([][]bool, len(cols.Bool))
		if err := scan(cols, func(b *Batch) error {
			if b.Len > DefaultBatchSize {
				t.Fatalf("batch of %d rows exceeds DefaultBatchSize", b.Len)
			}
			for k := range nums {
				nums[k] = append(nums[k], b.Numeric[k][:b.Len]...)
			}
			for k := range bools {
				bools[k] = append(bools[k], b.Bool[k][:b.Len]...)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return nums, bools
	}
	groupModel := func(start, end int, cols ColumnSet) int64 {
		var want int64
		for g0 := 0; g0 < n; g0 += groupRows {
			first, last := max(start, g0)-g0, min(end, g0+groupRows)-g0
			if first >= last {
				continue
			}
			for _, a := range cols.Numeric {
				if blk := dr.numBlock(g0/groupRows, dr.numPos[a]); blk.enc != v3EncRaw {
					encoded = true
					want += int64(blk.encLen)
				} else {
					want += int64((last - first) * 8)
				}
			}
			want += int64(len(cols.Bool) * ((last+7)/8 - first/8))
		}
		return want
	}
	ranges := [][2]int{
		{0, n},             // whole relation
		{3, n},             // start mod 8 != 0 through the tail group
		{100, 205},         // inside one window
		{8000, 8500},       // across a window boundary
		{8195, 16381},      // unaligned at both ends, inside one window
		{19995, 20013},     // across a group boundary
		{16000, 41000},     // across windows and two group boundaries
		{13, 30001},        // unaligned start, ends mid-window
		{28190, 28195},     // straddles a window cut inside group 1
		{49999, 50000},     // last row
		{500, 500},         // empty
		{40001, 48193},     // tail group, ends one past a window cut
		{1, groupRows - 1}, // one group minus its edges
	}
	for _, cols := range []ColumnSet{
		{Numeric: []int{0, 1}, Bool: []int{2, 3}},
		{Bool: []int{3}},
		{Numeric: []int{1}},
	} {
		wholeN, wholeB := collect(dr.Scan, cols)
		for _, rg := range ranges {
			start, end := rg[0], rg[1]
			dr.ResetBytesRead()
			gotN, gotB := collect(func(c ColumnSet, fn func(*Batch) error) error {
				return dr.ScanRange(start, end, c, fn)
			}, cols)
			if got, want := dr.BytesRead(), groupModel(start, end, cols); got != want {
				t.Errorf("range %v cols %v: charged %d bytes, per-group model %d", rg, cols, got, want)
			}
			for k := range gotN {
				if len(gotN[k]) != end-start {
					t.Fatalf("range %v: numeric column %d delivered %d rows, want %d", rg, k, len(gotN[k]), end-start)
				}
				for i, v := range gotN[k] {
					if math.Float64bits(v) != math.Float64bits(wholeN[k][start+i]) {
						t.Fatalf("range %v: numeric column %d row %d differs from Scan", rg, k, start+i)
					}
				}
			}
			for k := range gotB {
				if len(gotB[k]) != end-start {
					t.Fatalf("range %v: boolean column %d delivered %d rows, want %d", rg, k, len(gotB[k]), end-start)
				}
				for i, v := range gotB[k] {
					if v != wholeB[k][start+i] {
						t.Fatalf("range %v: boolean column %d row %d differs from Scan", rg, k, start+i)
					}
				}
			}
		}
	}
	if want := dr.Version() == DiskFormatV3; encoded != want {
		t.Errorf("v%d file: encoded numeric blocks present = %v, want %v", dr.Version(), encoded, want)
	}
}
