package relation

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadCSVAutoSchema checks the CSV reader never panics and that
// accepted inputs round-trip: whatever parses must re-parse to the same
// tuple count after WriteCSV.
func FuzzReadCSVAutoSchema(f *testing.F) {
	f.Add("A,B\n1.5,yes\n2,no\n")
	f.Add("A\nhello\n")
	f.Add("X,Y,Z\n1,2,3\n4,5\n")
	f.Add("")
	f.Add("Balance,CardLoan\n-1e308,true\n0.0,0\n")
	f.Add("A,A\n1,2\n")
	f.Add("A,B\nNaN,yes\n")
	f.Fuzz(func(t *testing.T, input string) {
		rel, err := ReadCSVAutoSchema(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatalf("accepted relation failed to serialize: %v", err)
		}
		back, err := ReadCSV(&buf, rel.Schema())
		if err != nil {
			t.Fatalf("serialized relation failed to re-parse: %v", err)
		}
		if back.NumTuples() != rel.NumTuples() {
			t.Fatalf("round trip changed tuple count: %d -> %d", rel.NumTuples(), back.NumTuples())
		}
	})
}

// FuzzOpenSharded feeds arbitrary manifest text to the sharded opener:
// two genuine shard files sit in the directory, so accepted manifests
// exercise shard opening and cross-checking too. It must reject or
// accept without panicking, and an accepted relation must scan exactly
// the row count it declares.
func FuzzOpenSharded(f *testing.F) {
	f.Add("OPTSHARD 1\nshard 7 s0.opr\nshard 3 s1.opr\n")
	f.Add("OPTSHARD 1\nshard 7 s0.opr\n# comment\n\nshard 7 s0.opr\n")
	f.Add("OPTSHARD 1\n")
	f.Add("OPTSHARD 2\nshard 7 s0.opr\n")
	f.Add("OPTSHARD 1\nshard -1 s0.opr\n")
	f.Add("OPTSHARD 1\nshard 99 s0.opr\n")
	f.Add("OPTSHARD 1\nshard 7 missing.opr\n")
	f.Add("OPTSHARD 1\nshard x s0.opr\nshard 3 s1.opr junk\n")
	f.Add("OPTR not a manifest")
	f.Add("")
	// Appended-manifest shapes: AppendToSharded writes appended
	// `m-sNNNNN.opr` lines after the existing text, so
	// opened-after-append relations look like these — including a shard
	// repeated between the seed and appended sections, appended lines
	// whose files are missing (a torn cleanup), and an uncommitted
	// staged tail led by a NUL.
	f.Add("OPTSHARD 1\nshard 7 s0.opr\nshard 3 s1.opr\nshard 7 m-s00002.opr\n")
	f.Add("OPTSHARD 1\nshard 7 s0.opr\nshard 7 s0.opr\nshard 3 s1.opr\n")
	f.Add("OPTSHARD 1\nshard 7 s0.opr\nshard 3 m-s00001.opr\nshard 3 m-s00002.opr\n")
	f.Add("OPTSHARD 1\nshard 7 s0.opr\nshard 0 m-s00001.opr\n")
	f.Add("OPTSHARD 1\nshard 7 s0.opr\n\x00hard 3 s1.opr\n")
	f.Add("OPTSHARD 1\nshard 7 s0.opr\x00shard 3 s1.o")
	f.Fuzz(func(t *testing.T, manifest string) {
		dir := t.TempDir()
		for i, rows := range []int{7, 3} {
			name := filepath.Join(dir, "s"+string(rune('0'+i))+".opr")
			dw, err := NewDiskWriterV2(name, Schema{{Name: "X", Kind: Numeric}, {Name: "B", Kind: Boolean}}, 4)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				dw.Append([]float64{float64(r)}, []bool{r%2 == 0})
			}
			if err := dw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, "m.oprs")
		if err := os.WriteFile(p, []byte(manifest), 0o644); err != nil {
			t.Skip()
		}
		sr, err := OpenSharded(p)
		if err != nil {
			return // rejection is fine; panics are not
		}
		defer sr.Close()
		count := 0
		err = sr.Scan(ColumnSet{Numeric: []int{0}, Bool: []int{1}}, func(b *Batch) error {
			count += b.Len
			return nil
		})
		if err != nil {
			t.Fatalf("accepted sharded relation failed to scan: %v", err)
		}
		if count != sr.NumTuples() {
			t.Fatalf("scan returned %d rows, manifest declared %d", count, sr.NumTuples())
		}
	})
}

// FuzzOpenDisk feeds arbitrary bytes to the binary reader — the v1 row
// parser, the v2 header/block-directory parser, and the v3 compressed
// header/directory/block parsers: it must reject or accept without
// panicking, and never over-deliver declared rows. For v1/v2, an
// accepted file must also scan cleanly (every field the scan trusts is
// validated at open); v3 block payloads are validated at DECODE time,
// so an accepted v3 file may legitimately fail mid-scan — what it must
// never do is panic, deliver more rows than declared, or scan cleanly
// with a row count other than the declared one.
func FuzzOpenDisk(f *testing.F) {
	// Seed with a genuine v1 file.
	dir := f.TempDir()
	path := filepath.Join(dir, "fuzz-seed.opr")
	dw, err := NewDiskWriter(path, Schema{{Name: "X", Kind: Numeric}, {Name: "B", Kind: Boolean}})
	if err != nil {
		f.Fatal(err)
	}
	dw.Append([]float64{1.5}, []bool{true})
	dw.Append([]float64{-2.5}, []bool{false})
	if err := dw.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("OPTR garbage"))
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])
	// Seed with a genuine v2 file: several groups plus a partial tail,
	// and mutations cutting into the directory and the header tail.
	pathV2 := filepath.Join(dir, "fuzz-seed-v2.opr")
	dw2, err := NewDiskWriterV2(pathV2, Schema{{Name: "X", Kind: Numeric}, {Name: "B", Kind: Boolean}}, 4)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		dw2.Append([]float64{float64(i) * 1.5}, []bool{i%2 == 0})
	}
	if err := dw2.Close(); err != nil {
		f.Fatal(err)
	}
	validV2, err := os.ReadFile(pathV2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validV2)
	f.Add(validV2[:len(validV2)-5])        // cut mid-directory
	f.Add(validV2[:len(validV2)/2])        // cut mid-data
	mut := append([]byte(nil), validV2...) // corrupt a directory byte
	mut[len(mut)-6] ^= 0xff
	f.Add(mut)
	// Seed with a genuine v3 file exercising most encodings: a delta
	// column (small ints), a dict column (3 repeating reals), a raw
	// column (irrationals), a FOR column (integers beyond the ±2^52
	// delta limit, where only FOR is exact), and a bitmap bool —
	// several groups plus a partial tail — with mutations into the
	// directory (zone maps, encodings, offsets) and into the
	// compressed payloads.
	pathV3 := filepath.Join(dir, "fuzz-seed-v3.opr")
	dw3, err := NewDiskWriterV3(pathV3, Schema{
		{Name: "D", Kind: Numeric}, {Name: "K", Kind: Numeric},
		{Name: "R", Kind: Numeric}, {Name: "F", Kind: Numeric},
		{Name: "B", Kind: Boolean},
	}, 4)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		dicts := []float64{0.5, 1.5, 2.5}
		dw3.Append([]float64{
			float64(i % 7), dicts[i%3], float64(i) + 0.123,
			float64(uint64(1)<<53) + float64(i)*512,
		}, []bool{i%2 == 0})
	}
	if err := dw3.Close(); err != nil {
		f.Fatal(err)
	}
	validV3, err := os.ReadFile(pathV3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validV3)
	f.Add(validV3[:len(validV3)-5]) // cut mid-directory
	f.Add(validV3[:len(validV3)/2]) // cut mid-data
	for _, flip := range []int{6, 20, 29, 40} {
		mut3 := append([]byte(nil), validV3...) // corrupt directory bytes
		mut3[len(mut3)-flip] ^= 0xff
		f.Add(mut3)
	}
	mid := append([]byte(nil), validV3...) // corrupt a payload byte
	mid[len(mid)/2] ^= 0xff
	f.Add(mid)
	// A second v3 seed built for run-length coding: RLE only beats the
	// dictionary when a group's cardinality is high relative to its run
	// count, which tiny groups cannot produce — so this file uses
	// 400-row groups with two long half-group runs. Mutations cut and
	// flip into the run directory and the packed payload.
	pathRLE := filepath.Join(dir, "fuzz-seed-v3-rle.opr")
	dwR, err := NewDiskWriterV3(pathRLE, Schema{{Name: "S", Kind: Numeric}}, 400)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		dwR.Append([]float64{float64(i/200) + 0.5}, nil)
	}
	if err := dwR.Close(); err != nil {
		f.Fatal(err)
	}
	validRLE, err := os.ReadFile(pathRLE)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validRLE)
	f.Add(validRLE[:len(validRLE)-9]) // cut mid-directory
	f.Add(validRLE[:40])              // cut mid-payload
	for _, flip := range []int{5, 17, 25, 33, 40, 41, 44, 48, 52} {
		mutR := append([]byte(nil), validRLE...) // run counts, end rows, values
		mutR[flip] ^= 0xff
		f.Add(mutR)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.opr")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		dr, err := OpenDisk(p)
		if err != nil {
			return
		}
		count := 0
		err = dr.Scan(ColumnSet{Numeric: dr.Schema().NumericIndices(), Bool: dr.Schema().BooleanIndices()},
			func(b *Batch) error {
				count += b.Len
				return nil
			})
		if count > dr.NumTuples() {
			t.Fatalf("scan delivered %d rows, header declared %d", count, dr.NumTuples())
		}
		if err != nil {
			// v3 block payloads are validated at decode time, so a hostile
			// file may pass the open-time directory checks and fail
			// mid-scan — a clean error, not a panic, is the contract. For
			// v1/v2, everything a scan trusts was validated at open, so a
			// scan failure there means an open-time check has a hole.
			if dr.Version() == DiskFormatV3 {
				return
			}
			t.Fatalf("accepted v%d file failed to scan: %v", dr.Version(), err)
		}
		if count != dr.NumTuples() {
			t.Fatalf("scan returned %d rows, header declared %d", count, dr.NumTuples())
		}
	})
}
