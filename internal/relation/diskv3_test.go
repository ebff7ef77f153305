package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTestFileV3 writes n pseudo-random tuples in v3 format with the
// given block-group size and returns the path plus the in-memory twin.
// The same (n, seed) passed to writeTestFile / writeTestFileV2 yields
// identical data in v1 / v2.
func writeTestFileV3(t *testing.T, n int, seed int64, groupRows int) (string, *MemoryRelation) {
	t.Helper()
	schema := bankSchema()
	path := filepath.Join(t.TempDir(), "data_v3.opr")
	dw, err := NewDiskWriterV3(path, schema, groupRows)
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

func TestDiskV3RoundTrip(t *testing.T) {
	// Several full groups, a partial tail group, group boundaries that do
	// not coincide with batch boundaries.
	n := 3*1000 + 137
	path, mem := writeTestFileV3(t, n, 1, 1000)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Version() != DiskFormatV3 {
		t.Fatalf("Version = %d, want %d", dr.Version(), DiskFormatV3)
	}
	if dr.GroupRows() != 1000 {
		t.Fatalf("GroupRows = %d, want 1000", dr.GroupRows())
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

func TestDiskV3ScanRangeMatchesMemory(t *testing.T) {
	n := 2500
	path, mem := writeTestFileV3(t, n, 2, 512)
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

// TestDiskV3EncodingRoundTrips writes columns engineered to exercise
// each encoding — including NaN and ±Inf under dict and raw — and pins
// both the CHOSEN encoding (via the decoded directory) and bit-exact
// round-trips of every value.
func TestDiskV3EncodingRoundTrips(t *testing.T) {
	nan, pinf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	cases := []struct {
		name    string
		gen     func(i int) float64
		wantEnc uint8
	}{
		{"delta small ints", func(i int) float64 { return float64(18 + i%73) }, v3EncDelta},
		{"delta negatives", func(i int) float64 { return float64(i%100 - 50) }, v3EncDelta},
		{"delta constant", func(i int) float64 { return 42 }, v3EncDelta},
		{"delta wide span", func(i int) float64 { return float64(i) * 1e9 }, v3EncDelta},
		{"dict low cardinality", func(i int) float64 { return []float64{1.5, -2.25, 1e300, 0.125}[i%4] }, v3EncDict},
		{"dict with specials", func(i int) float64 { return []float64{nan, pinf, ninf, 7.5}[i%4] }, v3EncDict},
		{"dict negative zero", func(i int) float64 {
			if i%2 == 0 {
				return math.Copysign(0, -1)
			}
			return 0
		}, v3EncDict},
		{"raw continuous", func(i int) float64 { return math.Sqrt(float64(i) + 0.5) }, v3EncRaw},
		// Integer-valued beyond the delta limit: FOR's exact int64
		// arithmetic reaches where delta's float differences would round.
		{"for beyond 2^52", func(i int) float64 { return float64(uint64(1)<<53) + float64(i)*4096 }, v3EncFOR},
		{"for negative wide", func(i int) float64 { return -float64(uint64(1)<<60) + float64(i)*65536 }, v3EncFOR},
		// Sorted non-integer runs with per-group cardinality above
		// v3MaxDict: only RLE exploits the structure.
		{"rle sorted runs", func(i int) float64 { return float64(i/2) + 0.5 }, v3EncRLE},
		{"rle long runs with NaN", func(i int) float64 { return []float64{nan, 2.5, pinf}[i/500] }, v3EncRLE},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			schema := Schema{{Name: "X", Kind: Numeric}, {Name: "B", Kind: Boolean}}
			n := 1500
			path := filepath.Join(t.TempDir(), "enc.opr")
			dw, err := NewDiskWriterV3(path, schema, 600)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, n)
			for i := 0; i < n; i++ {
				want[i] = tc.gen(i)
				if err := dw.Append([]float64{want[i]}, []bool{i%5 == 0}); err != nil {
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
			if tc.wantEnc != 255 {
				if got := dr.numBlock(0, 0).enc; got != tc.wantEnc {
					t.Errorf("group 0 chose encoding %d, want %d", got, tc.wantEnc)
				}
			}
			at := 0
			err = dr.Scan(ColumnSet{Numeric: []int{0}, Bool: []int{1}}, func(b *Batch) error {
				for r := 0; r < b.Len; r++ {
					if math.Float64bits(b.Numeric[0][r]) != math.Float64bits(want[at]) {
						return fmt.Errorf("row %d: got %v (%x), want %v (%x)", at,
							b.Numeric[0][r], math.Float64bits(b.Numeric[0][r]), want[at], math.Float64bits(want[at]))
					}
					if b.Bool[0][r] != (at%5 == 0) {
						return fmt.Errorf("row %d: bool wrong", at)
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
			// Point reads must agree bit-for-bit with the scan on every
			// encoding (they decode through a separate O(1) path).
			rows := []int{0, 1, 1, 599, 600, 601, 1234, n - 1}
			out := make([]float64, len(rows))
			if err := dr.ReadNumericPoints(0, rows, out); err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				if math.Float64bits(out[i]) != math.Float64bits(want[row]) {
					t.Errorf("point read row %d: got %v, want %v", row, out[i], want[row])
				}
			}
		})
	}
}

// TestPackBitsRoundTrip exercises the bit packers across every width
// with random values and lengths straddling the 9-byte fast path's
// boundary conditions.
func TestPackBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for bw := 0; bw <= 64; bw++ {
		for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 300} {
			vals := make([]uint64, n)
			var mask uint64
			if bw > 0 {
				mask = ^uint64(0) >> uint(64-bw)
			}
			for i := range vals {
				vals[i] = rng.Uint64() & mask
			}
			buf := make([]byte, (n*bw+7)/8)
			packBits(buf, vals, bw)
			got := make([]uint64, n)
			unpackBits(buf, bw, n, got)
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("bw %d n %d: value %d = %d, want %d", bw, n, i, got[i], vals[i])
				}
			}
		}
	}
}

// TestDiskV3MatchesV2 pins that the formats hold bit-identical data:
// the same stream written through both writers scans back equal.
func TestDiskV3MatchesV2(t *testing.T) {
	n := 9000
	v2Path, _ := writeTestFileV2(t, n, 11, 2048)
	v3Path, _ := writeTestFileV3(t, n, 11, 2048)
	v2, err := OpenDisk(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := OpenDisk(v3Path)
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
	r2, r3 := read(v2), read(v3)
	if len(r2) != n || len(r3) != n {
		t.Fatalf("read %d v2 rows, %d v3 rows, want %d", len(r2), len(r3), n)
	}
	for i := range r2 {
		if r2[i] != r3[i] {
			t.Fatalf("row %d differs between formats: %v vs %v", i, r2[i], r3[i])
		}
	}
}

// TestDiskV3FewerBytesThanV2 pins the BytesRead contract for compressed
// reads: on the same scan, a v3 file with compressible columns charges
// strictly fewer physical bytes than v2 — the Age column (integers in
// [0,100)) delta-packs to 7 bits from 64.
func TestDiskV3FewerBytesThanV2(t *testing.T) {
	n := 50000
	v2Path, _ := writeTestFileV2(t, n, 4, 4096)
	v3Path, _ := writeTestFileV3(t, n, 4, 4096)
	v2, err := OpenDisk(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := OpenDisk(v3Path)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(dr *DiskRelation, cols ColumnSet) int64 {
		dr.ResetBytesRead()
		if err := dr.Scan(cols, func(b *Batch) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return dr.BytesRead()
	}
	// Compressible selection: the integer column and the bools.
	cols := ColumnSet{Numeric: []int{1}, Bool: []int{2, 3}}
	b2, b3 := scan(v2, cols), scan(v3, cols)
	if b3 >= b2 {
		t.Errorf("v3 scan charged %d bytes, v2 %d: want v3 strictly fewer", b3, b2)
	}
	// Full-width selection including the incompressible Balance column
	// must still never exceed v2 (raw fallback is byte-identical in size).
	all := ColumnSet{Numeric: []int{0, 1}, Bool: []int{2, 3}}
	if b3, b2 := scan(v3, all), scan(v2, all); b3 > b2 {
		t.Errorf("v3 full scan charged %d bytes, v2 %d: raw fallback must not grow", b3, b2)
	}
}

// clusteredSchema builds a v3 file whose Flag column is true only in
// rows [lo, hi) — so whole block groups outside the band are provably
// flag-free and zone-prunable — plus a numeric ID column equal to the
// row index.
func writeClusteredV3(t *testing.T, path string, n, lo, hi, groupRows int) {
	t.Helper()
	schema := Schema{{Name: "ID", Kind: Numeric}, {Name: "V", Kind: Numeric}, {Name: "Flag", Kind: Boolean}}
	dw, err := NewDiskWriterV3(path, schema, groupRows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < n; i++ {
		if err := dw.Append([]float64{float64(i), rng.NormFloat64()}, []bool{i >= lo && i < hi}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskV3ZoneMapPruning pins the zone-map differential: a pruned
// scan must deliver exactly the rows of non-prunable groups, report
// every skipped row through the callback (so delivered+skipped spans
// the range exactly), charge zero bytes for skipped groups, and agree
// with the unpruned scan on everything it delivers.
func TestDiskV3ZoneMapPruning(t *testing.T) {
	n, lo, hi, gr := 10000, 4200, 4800, 1000
	path := filepath.Join(t.TempDir(), "clustered.opr")
	writeClusteredV3(t, path, n, lo, hi, gr)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	cols := ColumnSet{Numeric: []int{0}, Bool: []int{2}}

	type result struct {
		delivered int
		skipped   int
		matches   int
		sum       float64
		bytes     int64
	}
	run := func(pred *Predicate) result {
		dr.ResetBytesRead()
		var res result
		err := dr.ScanRangePruned(0, n, cols, pred,
			func(rows int) error { res.skipped += rows; return nil },
			func(b *Batch) error {
				for r := 0; r < b.Len; r++ {
					res.delivered++
					if b.Bool[0][r] {
						res.matches++
						res.sum += b.Numeric[0][r]
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		res.bytes = dr.BytesRead()
		return res
	}

	pred := &Predicate{Bools: []BoolPredicate{{Attr: 2, Want: true}}}
	pruned := run(pred)
	unpruned := run(nil)

	if unpruned.skipped != 0 || unpruned.delivered != n {
		t.Fatalf("unpruned scan delivered %d + skipped %d, want %d + 0", unpruned.delivered, unpruned.skipped, n)
	}
	if pruned.delivered+pruned.skipped != n {
		t.Fatalf("pruned scan delivered %d + skipped %d, want total %d", pruned.delivered, pruned.skipped, n)
	}
	if pruned.skipped == 0 {
		t.Fatalf("pruned scan skipped nothing; zone maps not consulted")
	}
	// The flag band [4200, 4800) lies entirely inside group 4; the other
	// 9 of 10 groups are prunable.
	if want := 9 * gr; pruned.skipped != want {
		t.Errorf("pruned scan skipped %d rows, want %d", pruned.skipped, want)
	}
	if pruned.matches != unpruned.matches || pruned.sum != unpruned.sum {
		t.Errorf("pruning changed the counted matches: %d/%g vs %d/%g",
			pruned.matches, pruned.sum, unpruned.matches, unpruned.sum)
	}
	if pruned.bytes >= unpruned.bytes {
		t.Errorf("pruned scan charged %d bytes, unpruned %d: want strictly fewer", pruned.bytes, unpruned.bytes)
	}

	// Range predicate over the ID column (equal to the row index): only
	// group 2 intersects [2000, 2500].
	rp := &Predicate{Ranges: []RangePredicate{{Attr: 0, Lo: 2000, Hi: 2500}}}
	r := run(rp)
	if r.delivered+r.skipped != n || r.skipped != 9*gr {
		t.Errorf("range pruning delivered %d + skipped %d, want %d rows with %d skipped", r.delivered, r.skipped, n, 9*gr)
	}

	// Want=false against the all-true band prunes only the band's fully
	// true groups — here none are fully true except group 4..5 partially;
	// construct the inverse: groups 4 and 5 contain false rows too, so
	// nothing is prunable and the scan degrades to a full delivery.
	inv := run(&Predicate{Bools: []BoolPredicate{{Attr: 2, Want: false}}})
	if inv.delivered != n || inv.skipped != 0 {
		t.Errorf("Want=false pruned %d rows of a relation with false rows in every group", inv.skipped)
	}

	// An unsatisfiable conjunction prunes everything.
	none := run(&Predicate{Ranges: []RangePredicate{{Attr: 0, Lo: 2 * float64(n), Hi: 3 * float64(n)}}})
	if none.delivered != 0 || none.skipped != n || none.bytes != 0 {
		t.Errorf("unsatisfiable predicate delivered %d, skipped %d, charged %d bytes; want 0/%d/0",
			none.delivered, none.skipped, none.bytes, n)
	}
}

// TestDiskV3PrunedScanValidation pins predicate validation and the
// v1/v2 degradation path.
func TestDiskV3PrunedScanValidation(t *testing.T) {
	path, _ := writeTestFileV3(t, 100, 9, 64)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	cols := ColumnSet{Numeric: []int{0}}
	nop := func(*Batch) error { return nil }
	if err := dr.ScanRangePruned(0, 100, cols, &Predicate{Bools: []BoolPredicate{{Attr: 0, Want: true}}}, nil, nop); err == nil {
		t.Errorf("bool predicate on numeric attribute accepted")
	}
	if err := dr.ScanRangePruned(0, 100, cols, &Predicate{Ranges: []RangePredicate{{Attr: 2, Lo: 0, Hi: 1}}}, nil, nop); err == nil {
		t.Errorf("range predicate on boolean attribute accepted")
	}
	if err := dr.ScanRangePruned(0, 100, cols, &Predicate{Ranges: []RangePredicate{{Attr: 0, Lo: math.NaN(), Hi: 1}}}, nil, nop); err == nil {
		t.Errorf("NaN range bound accepted")
	}

	// v2 files implement the interface but never prune.
	v2Path, _ := writeTestFileV2(t, 100, 9, 64)
	v2, err := OpenDisk(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	delivered, skipped := 0, 0
	err = v2.ScanRangePruned(0, 100, cols,
		&Predicate{Ranges: []RangePredicate{{Attr: 0, Lo: -2, Hi: -1}}},
		func(rows int) error { skipped += rows; return nil },
		func(b *Batch) error { delivered += b.Len; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 100 || skipped != 0 {
		t.Errorf("v2 pruned scan delivered %d, skipped %d; want full delivery", delivered, skipped)
	}
}

// TestConvertDiskV3 round-trips v1 -> v3 -> v2 -> v3 -> v1 and checks
// the data survives every hop.
func TestConvertDiskV3(t *testing.T) {
	n := 5000
	v1Path, mem := writeTestFile(t, n, 21)
	dir := t.TempDir()
	hops := []struct {
		name    string
		version int
	}{
		{"a_v3.opr", DiskFormatV3},
		{"b_v2.opr", DiskFormatV2},
		{"c_v3.opr", DiskFormatV3},
		{"d_v1.opr", DiskFormatV1},
	}
	src := v1Path
	for _, h := range hops {
		dst := filepath.Join(dir, h.name)
		if err := ConvertDisk(src, dst, h.version); err != nil {
			t.Fatalf("convert %s -> %s: %v", src, dst, err)
		}
		src = dst
	}
	dr, err := OpenDisk(src)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mem.NumericColumn(0)
	wantB, _ := mem.BoolColumn(3)
	at := 0
	err = dr.Scan(ColumnSet{Numeric: []int{0}, Bool: []int{3}}, func(b *Batch) error {
		for r := 0; r < b.Len; r++ {
			if b.Numeric[0][r] != want[at] || b.Bool[0][r] != wantB[at] {
				return fmt.Errorf("row %d differs after conversion chain", at)
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

func TestDiskV3Empty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty_v3.opr")
	dw, err := NewDiskWriterV3(path, bankSchema(), 0)
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

// TestDiskV3ConcurrentScanRange pins that disjoint ScanRange segments
// on one shared v3 relation share no mutable state (run under -race).
func TestDiskV3ConcurrentScanRange(t *testing.T) {
	n := 20000
	path, mem := writeTestFileV3(t, n, 13, 4096)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	col, _ := mem.NumericColumn(0)
	for _, v := range col {
		want += v
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
}

// v3FileLayout locates the pieces of a valid v3 test file needed by the
// corruption tests: header tail offsets and the block directory.
type v3FileLayout struct {
	data      []byte
	rowsOff   int64
	dirOff    int64
	nums      int
	bools     int
	numGroups int
}

func v3Layout(t *testing.T, path string) *v3FileLayout {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rowsOff, _, numGroupsOff, dirOffOff := v2HeaderOffsets(bankSchema())
	return &v3FileLayout{
		data:      data,
		rowsOff:   rowsOff,
		dirOff:    int64(binary.LittleEndian.Uint64(data[dirOffOff:])),
		nums:      2,
		bools:     2,
		numGroups: int(binary.LittleEndian.Uint32(data[numGroupsOff:])),
	}
}

// numEntry returns the directory offset of group g's numeric column p.
func (l *v3FileLayout) numEntry(g, p int) int64 {
	return l.dirOff + int64(g)*int64(v3GroupEntrySize(l.nums, l.bools)) + int64(p)*v3NumEntrySize
}

// TestDiskV3CorruptionErrors corrupts a valid v3 file in the targeted
// ways the issue names — truncated block, bad dictionary index, min/max
// inversion, bit-width overflow — plus header-level damage, and checks
// every case is rejected with an error (at open or at scan), never a
// panic or a silent miscount.
func TestDiskV3CorruptionErrors(t *testing.T) {
	path, _ := writeTestFileV3(t, 2500, 5, 1000)
	l := v3Layout(t, path)
	// Column 1 (Age) is delta-coded; find its directory entry in group 0.
	ageEntry := l.numEntry(0, 1)

	cases := []struct {
		name    string
		corrupt func(d []byte) []byte
		openErr string // non-empty: must fail at open, mentioning this
	}{
		{"zone map inverted", func(d []byte) []byte {
			// Swap min and max of the Age block: min > max.
			binary.LittleEndian.PutUint64(d[ageEntry+13:], math.Float64bits(99))
			binary.LittleEndian.PutUint64(d[ageEntry+21:], math.Float64bits(0))
			return d
		}, "inverted zone map"},
		{"zone map NaN", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[ageEntry+13:], math.Float64bits(math.NaN()))
			return d
		}, "inverted zone map"},
		{"unknown encoding", func(d []byte) []byte {
			d[ageEntry+12] = 9
			return d
		}, "unknown numeric encoding"},
		{"block offset out of bounds", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[ageEntry:], uint64(len(d)))
			return d
		}, "outside data region"},
		{"bit width overflow", func(d []byte) []byte {
			// First payload byte of the delta block is its bit width.
			off := binary.LittleEndian.Uint64(d[ageEntry:])
			d[off] = 200
			return d
		}, ""},
		{"bad dictionary", func(d []byte) []byte {
			// Rewrite the delta block as a dict block whose declared
			// dictionary is absurd; encLen no longer matches any legal
			// dict shape, so the decoder must reject it.
			d[ageEntry+12] = v3EncDict
			off := binary.LittleEndian.Uint64(d[ageEntry:])
			binary.LittleEndian.PutUint16(d[off:], 60000)
			return d
		}, ""},
		{"truncated block", func(d []byte) []byte {
			// Shrink the declared encLen of the Age block: the decoder
			// sees fewer bytes than the rows demand.
			encLen := binary.LittleEndian.Uint32(d[ageEntry+8:])
			binary.LittleEndian.PutUint32(d[ageEntry+8:], encLen/2)
			return d
		}, ""},
		{"truncated file mid-directory", func(d []byte) []byte {
			return d[:len(d)-7]
		}, "truncated"},
		{"bool trueCount overflow", func(d []byte) []byte {
			boolEntry := l.numEntry(0, 2) // first bool entry follows the numerics
			binary.LittleEndian.PutUint32(d[boolEntry+13:], 100000)
			return d
		}, "trueCount"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.corrupt(append([]byte(nil), l.data...))
			p := filepath.Join(t.TempDir(), "corrupt.opr")
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			dr, err := OpenDisk(p)
			if tc.openErr != "" {
				if err == nil {
					t.Fatalf("corrupt file accepted at open")
				}
				if !strings.Contains(err.Error(), tc.openErr) {
					t.Errorf("open error %q does not mention %q", err, tc.openErr)
				}
				return
			}
			if err != nil {
				return // rejected at open: also fine
			}
			rows := 0
			scanErr := dr.Scan(ColumnSet{Numeric: []int{0, 1}, Bool: []int{2, 3}}, func(b *Batch) error {
				rows += b.Len
				return nil
			})
			if scanErr == nil && rows != dr.NumTuples() {
				t.Errorf("corrupt file scanned cleanly but delivered %d of %d rows", rows, dr.NumTuples())
			}
			if scanErr == nil && rows == dr.NumTuples() {
				t.Errorf("corrupt file scanned cleanly; corruption undetected")
			}
		})
	}
}

// TestDiskV3CorruptionRLEFOR corrupts genuine RLE and FOR blocks in
// the targeted ways the decoders must reject — run counts exceeding
// the block's rows, truncated run directories, out-of-range or
// non-monotonic run ends, FOR widths beyond 63, and base+delta
// overflow — through both the scan and point-read paths.
func TestDiskV3CorruptionRLEFOR(t *testing.T) {
	schema := Schema{{Name: "S", Kind: Numeric}, {Name: "F", Kind: Numeric}}
	path := filepath.Join(t.TempDir(), "rlefor.opr")
	dw, err := NewDiskWriterV3(path, schema, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		// S: two 200-row runs per group, cardinality-beating RLE. F:
		// integers beyond the delta limit, FOR-only territory.
		if err := dw.Append([]float64{float64(i/200) + 0.5, float64(uint64(1)<<53) + float64(i)*512}, nil); err != nil {
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
	if enc := dr.numBlock(0, 0).enc; enc != v3EncRLE {
		t.Fatalf("column S chose encoding %d, want RLE", enc)
	}
	if enc := dr.numBlock(0, 1).enc; enc != v3EncFOR {
		t.Fatalf("column F chose encoding %d, want FOR", enc)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, dirOffOff := v2HeaderOffsets(schema)
	dirOff := int64(binary.LittleEndian.Uint64(valid[dirOffOff:]))
	entry := func(p int) int64 { return dirOff + int64(p)*v3NumEntrySize }
	sOff := int64(binary.LittleEndian.Uint64(valid[entry(0):]))
	fOff := int64(binary.LittleEndian.Uint64(valid[entry(1):]))

	cases := []struct {
		name     string
		corrupt  func(d []byte)
		errFrag  string // scan error must mention this when non-empty
		attr     int    // point read of this column must fail too
		pointRow int
	}{
		{"run count exceeds rows", func(d []byte) {
			binary.LittleEndian.PutUint32(d[sOff:], 100000)
		}, "run count", 0, 300},
		{"truncated runs", func(d []byte) {
			binary.LittleEndian.PutUint32(d[entry(0)+8:], 16)
		}, "RLE block holds", 0, 300},
		{"run end beyond block", func(d []byte) {
			binary.LittleEndian.PutUint32(d[sOff+4:], 450)
		}, "", 0, 300},
		{"run ends not monotonic", func(d []byte) {
			binary.LittleEndian.PutUint32(d[sOff+4+v3RLERunSize:], 0)
		}, "", 0, 300},
		{"FOR width beyond 63", func(d []byte) {
			d[fOff+8] = 200
		}, "overflows 63", 1, 399},
		{"FOR base+delta overflow", func(d []byte) {
			binary.LittleEndian.PutUint64(d[fOff:], uint64(math.MaxInt64))
		}, "overflows int64", 1, 399},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), valid...)
			tc.corrupt(data)
			p := filepath.Join(t.TempDir(), "corrupt.opr")
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			cdr, err := OpenDisk(p)
			if err != nil {
				t.Fatalf("directory untouched; open failed: %v", err)
			}
			scanErr := cdr.Scan(ColumnSet{Numeric: []int{0, 1}}, func(*Batch) error { return nil })
			if scanErr == nil {
				t.Errorf("corrupt block scanned cleanly")
			} else if tc.errFrag != "" && !strings.Contains(scanErr.Error(), tc.errFrag) {
				t.Errorf("scan error %q does not mention %q", scanErr, tc.errFrag)
			}
			out := make([]float64, 1)
			if err := cdr.ReadNumericPoints(tc.attr, []int{tc.pointRow}, out); err == nil {
				t.Errorf("corrupt block accepted by point read")
			}
		})
	}
}

// TestDiskV3BadDictIndex crafts a genuine dict block (3 distinct
// values, so 2-bit indices can express the out-of-range index 3),
// corrupts the packed indices, and checks the decoder rejects the
// block instead of reading past the dictionary.
func TestDiskV3BadDictIndex(t *testing.T) {
	schema := Schema{{Name: "X", Kind: Numeric}}
	path := filepath.Join(t.TempDir(), "dict.opr")
	dw, err := NewDiskWriterV3(path, schema, 64)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0.5, 1.5, 2.5}
	for i := 0; i < 64; i++ {
		if err := dw.Append([]float64{vals[i%3]}, nil); err != nil {
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
	blk := dr.numBlock(0, 0)
	if blk.enc != v3EncDict {
		t.Fatalf("crafted block chose encoding %d, want dict", blk.enc)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Payload: count u16, 3×8 dict values, bw byte, packed indices. Set
	// every index bit: index 3 with a 3-entry dictionary.
	head := blk.off + 2 + 8*3 + 1
	for i := head; i < blk.off+int64(blk.encLen); i++ {
		data[i] = 0xFF
	}
	p := filepath.Join(t.TempDir(), "baddict.opr")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cdr, err := OpenDisk(p)
	if err != nil {
		t.Fatal(err) // directory untouched; must open
	}
	scanErr := cdr.Scan(ColumnSet{Numeric: []int{0}}, func(*Batch) error { return nil })
	if scanErr == nil || !strings.Contains(scanErr.Error(), "dict index") {
		t.Errorf("bad dict index scan error = %v, want dict index rejection", scanErr)
	}
	// The point-read path must reject it too.
	out := make([]float64, 1)
	if err := cdr.ReadNumericPoints(0, []int{5}, out); err == nil {
		t.Errorf("bad dict index accepted by point read")
	}
}

// TestDiskV3PointReadsMatchScan pins the flat point-read price on v3.
func TestDiskV3PointReadsMatchScan(t *testing.T) {
	n := 5000
	path, mem := writeTestFileV3(t, n, 31, 1024)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()
	for attr := 0; attr <= 1; attr++ {
		want, _ := mem.NumericColumn(attr)
		rows := []int{0, 1, 1, 512, 1023, 1024, 1025, 2047, 3000, n - 1}
		out := make([]float64, len(rows))
		dr.ResetBytesRead()
		if err := dr.ReadNumericPoints(attr, rows, out); err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if math.Float64bits(out[i]) != math.Float64bits(want[row]) {
				t.Errorf("attr %d row %d: got %v, want %v", attr, row, out[i], want[row])
			}
		}
		unique := len(rows) - 1 // one duplicate in the list
		if got := dr.BytesRead(); got != int64(unique)*8 {
			t.Errorf("attr %d: point reads charged %d bytes, want %d (8 per unique row)", attr, got, int64(unique)*8)
		}
	}
}

// TestShardedV3Mix pins that a sharded relation mixes v3 shards with
// other formats freely and that its pruned scan delegates per shard.
func TestShardedV3Mix(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "mix.oprs")
	sw, err := NewShardedWriter(manifest, bankSchema(), ShardedWriterOptions{RowsPerShard: 1000, Format: DiskFormatV3, GroupRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	mem := MustNewMemoryRelation(bankSchema())
	rng := rand.New(rand.NewSource(17))
	n := 3500
	for i := 0; i < n; i++ {
		nums := []float64{rng.Float64() * 1e6, float64(rng.Intn(100))}
		bools := []bool{rng.Intn(2) == 0, rng.Intn(3) == 0}
		if err := sw.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
		mem.MustAppend(nums, bools)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sr.NumShards())
	}
	want, _ := mem.NumericColumn(1)
	at := 0
	err = sr.Scan(ColumnSet{Numeric: []int{1}}, func(b *Batch) error {
		for r := 0; r < b.Len; r++ {
			if b.Numeric[0][r] != want[at] {
				return fmt.Errorf("row %d differs", at)
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
	// Pruned delegation: an unsatisfiable range skips every row of every
	// v3 shard.
	delivered, skipped := 0, 0
	err = sr.ScanRangePruned(0, n, ColumnSet{Numeric: []int{1}},
		&Predicate{Ranges: []RangePredicate{{Attr: 1, Lo: 1e9, Hi: 2e9}}},
		func(rows int) error { skipped += rows; return nil },
		func(b *Batch) error { delivered += b.Len; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 0 || skipped != n {
		t.Errorf("sharded pruned scan delivered %d, skipped %d; want 0, %d", delivered, skipped, n)
	}
}

// TestDiskV3RecycledDecodeState pins the recycled block-scan state:
// scans of one file selecting 3, then 2, then 3 numeric columns (and
// differing Boolean sets), then a scan of a file with larger block
// groups, each deliver exactly the rows of the in-memory twin, so a
// recycled state is cut to each scan's own selection and its decoded
// group of the encoded column B is regrown to each file's group size.
func TestDiskV3RecycledDecodeState(t *testing.T) {
	schema := Schema{
		{Name: "A", Kind: Numeric}, {Name: "B", Kind: Numeric}, {Name: "C", Kind: Numeric},
		{Name: "P", Kind: Boolean}, {Name: "Q", Kind: Boolean}, {Name: "R", Kind: Boolean},
	}
	write := func(groupRows int) (*DiskRelation, *MemoryRelation) {
		path := filepath.Join(t.TempDir(), "recycle.opr")
		dw, err := NewDiskWriterV3(path, schema, groupRows)
		if err != nil {
			t.Fatal(err)
		}
		mem := MustNewMemoryRelation(schema)
		rng := rand.New(rand.NewSource(int64(groupRows)))
		for i := 0; i < 2345; i++ {
			nums := []float64{rng.NormFloat64(), float64(rng.Intn(9)), rng.Float64() * 1e3}
			bools := []bool{rng.Intn(2) == 0, rng.Intn(3) == 0, i%5 == 0}
			if err := dw.Append(nums, bools); err != nil {
				t.Fatal(err)
			}
			mem.MustAppend(nums, bools)
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		dr, err := OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		return dr, mem
	}
	collect := func(r Relation, cols ColumnSet) ([][]float64, [][]bool) {
		nums := make([][]float64, len(cols.Numeric))
		bools := make([][]bool, len(cols.Bool))
		if err := r.Scan(cols, func(b *Batch) error {
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
	small, smallMem := write(400)
	large, largeMem := write(1500)
	for i, sc := range []struct {
		dr   *DiskRelation
		mem  *MemoryRelation
		cols ColumnSet
	}{
		{small, smallMem, ColumnSet{Numeric: []int{0, 1, 2}, Bool: []int{3, 5}}},
		{small, smallMem, ColumnSet{Numeric: []int{2, 0}, Bool: []int{4, 3, 5}}},
		{small, smallMem, ColumnSet{Numeric: []int{1, 2, 0}, Bool: []int{4}}},
		{large, largeMem, ColumnSet{Numeric: []int{0, 2}, Bool: []int{5, 3}}},
	} {
		gotN, gotB := collect(sc.dr, sc.cols)
		wantN, wantB := collect(sc.mem, sc.cols)
		if !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("scan %d (%+v): rows differ from the in-memory twin", i, sc.cols)
		}
	}
}
