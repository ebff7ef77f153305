package relation

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func benchMemory(b *testing.B, n int) *MemoryRelation {
	b.Helper()
	rel := MustNewMemoryRelation(bankSchema())
	rng := rand.New(rand.NewSource(1))
	rel.Grow(n)
	for i := 0; i < n; i++ {
		rel.MustAppend([]float64{rng.Float64() * 1e6, float64(rng.Intn(100))},
			[]bool{rng.Intn(2) == 0, rng.Intn(3) == 0})
	}
	return rel
}

func BenchmarkMemoryScan1M(b *testing.B) {
	rel := benchMemory(b, 1000000)
	cols := ColumnSet{Numeric: []int{0}, Bool: []int{2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		err := rel.Scan(cols, func(batch *Batch) error {
			for _, v := range batch.Numeric[0][:batch.Len] {
				sum += v
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(rel.NumTuples()) * 9) // 8B float + 1B bool per tuple
}

// BenchmarkDiskScan1M scans one numeric and one Boolean column of a
// 1M-row v1 file; the V2 variant reads the same rows through the
// block-group engine, which reads the raw numeric blocks in place and
// decodes the Boolean blocks, and the V3 variant reads them from
// encoded blocks, each read whole and decoded once per group.
func BenchmarkDiskScan1M(b *testing.B)   { benchDiskScan1M(b, DiskFormatV1) }
func BenchmarkDiskScan1MV2(b *testing.B) { benchDiskScan1M(b, DiskFormatV2) }
func BenchmarkDiskScan1MV3(b *testing.B) { benchDiskScan1M(b, DiskFormatV3) }

func benchDiskScan1M(b *testing.B, format int) {
	mem := benchMemory(b, 1000000)
	path := filepath.Join(b.TempDir(), "bench.opr")
	dw, err := NewDiskWriterFormat(path, mem.Schema(), format)
	if err != nil {
		b.Fatal(err)
	}
	bal, _ := mem.NumericColumn(0)
	age, _ := mem.NumericColumn(1)
	cl, _ := mem.BoolColumn(2)
	aw, _ := mem.BoolColumn(3)
	for i := 0; i < mem.NumTuples(); i++ {
		if err := dw.Append([]float64{bal[i], age[i]}, []bool{cl[i], aw[i]}); err != nil {
			b.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		b.Fatal(err)
	}
	dr, err := OpenDisk(path)
	if err != nil {
		b.Fatal(err)
	}
	cols := ColumnSet{Numeric: []int{0}, Bool: []int{2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		err := dr.Scan(cols, func(batch *Batch) error {
			for _, v := range batch.Numeric[0][:batch.Len] {
				sum += v
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(dr.NumTuples()) * int64(dr.rowSize))
}

func BenchmarkDiskWrite100k(b *testing.B) {
	dir := b.TempDir()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, "w.opr")
		dw, err := NewDiskWriter(path, bankSchema())
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100000; j++ {
			if err := dw.Append([]float64{rng.Float64(), 1}, []bool{true, false}); err != nil {
				b.Fatal(err)
			}
		}
		if err := dw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendToSharded times one grow — read the manifest, write
// and commit a 10k-row shard, commit its manifest line — onto a
// 1M-row, 4-shard v2 relation. The base is restored outside the timer:
// the new shard file is removed and the manifest cut back to its
// committed length.
func BenchmarkAppendToSharded(b *testing.B) {
	manifest := filepath.Join(b.TempDir(), "bank.oprs")
	sw, err := NewShardedWriter(manifest, bankSchema(), ShardedWriterOptions{Shards: 4, TotalRows: 1000000})
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.writeFrom(benchMemory(b, 1000000)); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(manifest)
	if err != nil {
		b.Fatal(err)
	}
	tail := appendFixtureTail(rand.New(rand.NewSource(2)), 10000)
	grown := filepath.Join(filepath.Dir(manifest), shardFileName(shardBaseName(manifest), 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AppendToSharded(manifest, tail, AppendOptions{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.Remove(grown); err != nil {
			b.Fatal(err)
		}
		if err := os.Truncate(manifest, st.Size()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
