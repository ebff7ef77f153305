package relation

import (
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// specialFloats are the values whose bits a raw block must carry
// through unchanged: both zeros, both infinities, NaNs with distinct
// payloads and signs, subnormals of both signs and the normal extremes.
var specialFloats = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), math.Float64frombits(0x800f_ffff_ffff_ffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -1.5,
}

// TestRawFloatsMatchesDecodeRaw reads a raw block of special values
// from every byte offset of an 8-byte-aligned buffer. rawFloats must
// return decodeRaw's values bit for bit; on a little-endian host it
// reads an aligned block in place and decodes a misaligned one into
// dst.
func TestRawFloatsMatchesDecodeRaw(t *testing.T) {
	n := len(specialFloats)
	buf := make([]byte, 8*n+16)
	base := int(-uintptr(unsafe.Pointer(&buf[0])) & 7) // first 8-byte-aligned offset
	for off := base; off < base+8; off++ {
		src := buf[off : off+8*n]
		for i, x := range specialFloats {
			binary.LittleEndian.PutUint64(src[8*i:], math.Float64bits(x))
		}
		dst := make([]float64, n)
		got := rawFloats(dst, src)
		want := decodeRaw(make([]float64, n), src)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("offset %d: value %d = %#x, want %#x", off-base, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		inPlace := unsafe.Pointer(&got[0]) == unsafe.Pointer(&src[0])
		if wantInPlace := littleEndian && off == base; inPlace != wantInPlace {
			t.Errorf("offset %d: read in place = %v, want %v", off-base, inPlace, wantInPlace)
		}
		if !inPlace && &got[0] != &dst[0] {
			t.Errorf("offset %d: decoded outside dst", off-base)
		}
	}
	if got := rawFloats(nil, nil); len(got) != 0 {
		t.Fatalf("empty block read %d values", len(got))
	}
}

// TestScanRawAfterEncodedBlock scans a v3 file whose first selected
// column is encoded with a block length that is not a multiple of 8,
// so in the window that reads a group's encoded blocks the raw column
// that follows it sits misaligned in the fetch buffer and is decoded,
// while the group's later windows read it in place. Every scanned
// value, special ones included, must keep the bits it was written
// with, in either column order.
func TestScanRawAfterEncodedBlock(t *testing.T) {
	const n, groupRows = 20000, 20000 // windows of 8192, 8192 and 3616 rows
	schema := Schema{{Name: "Code", Kind: Numeric}, {Name: "Raw", Kind: Numeric}}
	path := filepath.Join(t.TempDir(), "mixed.v3.opr")
	w, err := NewDiskWriterV3(path, schema, groupRows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	codes, raws := make([]float64, n), make([]float64, n)
	for i := range raws {
		codes[i] = float64(rng.Intn(5))
		raws[i] = math.Float64frombits(rng.Uint64())
		if i%7 == 0 {
			raws[i] = specialFloats[rng.Intn(len(specialFloats))]
		}
		if err := w.Append([]float64{codes[i], raws[i]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()
	if enc := dr.numBlock(0, 0); enc.enc == v3EncRaw || enc.encLen%8 == 0 {
		t.Fatalf("Code block: encoding %d, %d bytes; want an encoded block of unaligned length", enc.enc, enc.encLen)
	}
	if raw := dr.numBlock(0, 1); raw.enc != v3EncRaw {
		t.Fatalf("Raw block: encoding %d, want raw", raw.enc)
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		row := 0
		err := dr.Scan(ColumnSet{Numeric: order}, func(b *Batch) error {
			for k, attr := range order {
				want := codes
				if attr == 1 {
					want = raws
				}
				for i, x := range b.Numeric[k][:b.Len] {
					if math.Float64bits(x) != math.Float64bits(want[row+i]) {
						t.Fatalf("order %v: row %d of column %d = %#x, want %#x",
							order, row+i, attr, math.Float64bits(x), math.Float64bits(want[row+i]))
					}
				}
			}
			row += b.Len
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if row != n {
			t.Fatalf("order %v: scanned %d rows, want %d", order, row, n)
		}
	}
}

// TestScanBuffersSurviveCollection pins the block scans' recycled
// memory on its free lists: after a scan, its fetch buffers and scan
// state are still kept through two collections (sync.Pools would have
// dropped them), and many concurrent scans leave no more than the
// lists' bounds behind.
func TestScanBuffersSurviveCollection(t *testing.T) {
	path, _ := writeTestFileV2(t, 30000, 7, 4096)
	dr, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()
	cols := ColumnSet{Numeric: dr.Schema().NumericIndices(), Bool: dr.Schema().BooleanIndices()}
	scan := func() {
		if err := dr.Scan(cols, func(*Batch) error { return nil }); err != nil {
			t.Error(err)
		}
	}
	scan()
	bufs, states := blockBufPool.Len(), scanStatePool.Len()
	if bufs == 0 || states == 0 {
		t.Fatalf("after a scan the lists keep %d buffers and %d scan states, want some of each", bufs, states)
	}
	runtime.GC()
	runtime.GC()
	if blockBufPool.Len() != bufs || scanStatePool.Len() != states {
		t.Fatalf("two collections left %d buffers and %d scan states of %d and %d",
			blockBufPool.Len(), scanStatePool.Len(), bufs, states)
	}
	var wg sync.WaitGroup
	for range 3 * runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan()
		}()
	}
	wg.Wait()
	if n, bound := blockBufPool.Len(), scanReadAhead*runtime.GOMAXPROCS(0); n > bound {
		t.Fatalf("kept %d fetch buffers, want at most %d", n, bound)
	}
	if n, bound := scanStatePool.Len(), runtime.GOMAXPROCS(0); n > bound {
		t.Fatalf("kept %d scan states, want at most %d", n, bound)
	}
}
