package optrule

// One benchmark per table/figure of the paper's evaluation. Each bench
// wraps the corresponding experiment at a fixed size so that
// `go test -bench=.` regenerates every result; cmd/optbench prints the
// same experiments as full paper-style sweeps (use `optbench -full`
// for paper-scale sizes).

import (
	"math/rand"
	"path/filepath"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/core"
	"optrule/internal/datagen"
	"optrule/internal/experiments"
	"optrule/internal/relation"
	"optrule/internal/stats"
)

// BenchmarkFig1BinomialTail measures the Figure 1 analysis: the
// binomial-tail deviation probability at the paper's operating point
// (S = 40·M, δ = 0.5, M = 10⁴).
func BenchmarkFig1BinomialTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats.BucketDeviationProbability(400000, 10000, 0.5)
	}
}

// BenchmarkTable1ApproxError regenerates Table I: analytic error bounds
// plus the measured approximation on the planted 100k-tuple data set.
func BenchmarkTable1ApproxError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(100000)
	}
}

// BenchmarkFig9Algorithm31 measures the randomized bucketing pipeline
// (Algorithm 3.1, all 8 numeric attributes, M = 1000) on 100k tuples of
// the paper's 8-numeric + 8-Boolean random shape.
func BenchmarkFig9Algorithm31(b *testing.B) {
	rel := datagen.MustMaterialize(datagen.PaperPerfShape(), 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bucketing.Algorithm31All(rel, 1000, 40, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9NaiveSort measures the full-tuple Quick Sort baseline of
// Figure 9 on the same workload.
func BenchmarkFig9NaiveSort(b *testing.B) {
	rel := datagen.MustMaterialize(datagen.PaperPerfShape(), 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bucketing.NaiveSortAll(rel, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9VerticalSplitSort measures the (tupleID, value)
// temporary-table baseline of Figure 9.
func BenchmarkFig9VerticalSplitSort(b *testing.B) {
	rel := datagen.MustMaterialize(datagen.PaperPerfShape(), 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bucketing.VerticalSplitSortAll(rel, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// ruleBenchBuckets builds M almost-equi-depth buckets (~100 tuples
// each) with random hit counts, the Figures 10/11 input shape.
func ruleBenchBuckets(m int) (u []int, v []float64) {
	rng := rand.New(rand.NewSource(7))
	u = make([]int, m)
	v = make([]float64, m)
	for i := range u {
		u[i] = 90 + rng.Intn(21)
		v[i] = float64(rng.Intn(u[i] + 1))
	}
	return u, v
}

// BenchmarkFig10ConfidenceHull measures the O(M) optimized-confidence
// algorithm (Algorithms 4.1 + 4.2) at M = 10⁴ with the paper's 5%
// minimum support.
func BenchmarkFig10ConfidenceHull(b *testing.B) {
	u, v := ruleBenchBuckets(10000)
	total := 0
	for _, x := range u {
		total += x
	}
	minSup := 0.05 * float64(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.OptimalSlopePair(u, v, minSup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10ConfidenceNaive measures the quadratic baseline of
// Figure 10 at the same size.
func BenchmarkFig10ConfidenceNaive(b *testing.B) {
	u, v := ruleBenchBuckets(10000)
	total := 0
	for _, x := range u {
		total += x
	}
	minSup := 0.05 * float64(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.NaiveOptimalSlopePair(u, v, minSup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11SupportLinear measures the O(M) optimized-support
// algorithm (Algorithms 4.3 + 4.4) at M = 10⁴ with the paper's 50%
// minimum confidence.
func BenchmarkFig11SupportLinear(b *testing.B) {
	u, v := ruleBenchBuckets(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.OptimalSupportPair(u, v, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11SupportNaive measures the quadratic baseline of
// Figure 11 at the same size.
func BenchmarkFig11SupportNaive(b *testing.B) {
	u, v := ruleBenchBuckets(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.NaiveOptimalSupportPair(u, v, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBucketing measures the Section 3.3 parallel counting
// scan (Algorithm 3.2) with 8 workers of the engine's counting
// executor over 1M tuples, the path experiments.Parallel times.
func BenchmarkParallelBucketing(b *testing.B) {
	shape, err := datagen.NewPerfShape(1, 4, nil)
	if err != nil {
		b.Fatal(err)
	}
	rel := datagen.MustMaterialize(shape, 1000000, 1)
	rng := rand.New(rand.NewSource(2))
	bounds, err := bucketing.SampledBoundaries(rel, 0, 1000, 40, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.CountScan(rel, 0, bounds, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionRect2D measures the §1.4 rectangle extension: the
// O(M³) rectangle sweep on a 48×48 grid of 100k tuples, end to end
// (bucketing, grid counting, optimization).
func BenchmarkExtensionRect2D(b *testing.B) {
	rel, err := SampleBankData(100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine2D(rel, "Age", "Balance", "CardLoan", true,
			OptimizedConfidence, 48, Config{MinSupport: 0.05, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionXMonotone measures the x-monotone gain DP end to
// end at the same grid size.
func BenchmarkExtensionXMonotone(b *testing.B) {
	rel, err := SampleBankData(100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineXMonotone(rel, "Age", "Balance", "CardLoan", true,
			48, Config{MinConfidence: 0.5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionRectConvex measures the rectilinear-convex
// four-phase DP end to end at the same grid size.
func BenchmarkExtensionRectConvex(b *testing.B) {
	rel, err := SampleBankData(100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineRectilinearConvex(rel, "Age", "Balance", "CardLoan", true,
			48, Config{MinConfidence: 0.5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// bankDisk1M writes the 1M-tuple bank data set to disk (v2 columnar
// format, the default) and opens it — the shared fixture of the 2-D
// disk benchmarks.
func bankDisk1M(b *testing.B) *relation.DiskRelation {
	b.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bank.opr")
	if err := datagen.WriteDisk(path, bank, 1000000, 1); err != nil {
		b.Fatal(err)
	}
	rel, err := OpenDisk(path)
	if err != nil {
		b.Fatal(err)
	}
	return rel
}

// BenchmarkMine2D measures the rebuilt single-pair 2-D miner on the
// 1M-tuple disk bank at grid side 64: one fused sampling scan for both
// axes, one counting scan, parallel rectangle sweep.
func BenchmarkMine2D(b *testing.B) {
	rel := bankDisk1M(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine2D(rel, "Age", "Balance", "CardLoan", true,
			OptimizedConfidence, 64, Config{MinSupport: 0.05, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rel.BytesRead())/float64(b.N), "diskB/op")
}

// BenchmarkMineAll2DBank measures the fused all-pairs engine end to
// end on the disk bank: all three attribute pairs, both paper-standard
// rectangle kinds, in exactly two relation scans.
func BenchmarkMineAll2DBank(b *testing.B) {
	rel := bankDisk1M(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineAll2D(rel, Options2D{Objective: "CardLoan", ObjectiveValue: true, GridSide: 64},
			Config{MinSupport: 0.05, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rel.BytesRead())/float64(b.N), "diskB/op")
}

// BenchmarkMineAllBank measures the end-to-end system: the complete set
// of optimized rules for all combinations (3 numeric × 3 Boolean) on
// 100k bank tuples — the headline workload of the paper's introduction.
// The fused engine runs this in exactly two scans of the relation.
func BenchmarkMineAllBank(b *testing.B) {
	rel, err := SampleBankData(100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineAll(rel, Config{Buckets: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMineAllDisk measures the end-to-end MineAll workload over a
// 1M-tuple DISK-resident relation in the given format — the paper's
// actual regime, where sequential passes dominate cost.
func benchMineAllDisk(b *testing.B, version int) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bank.opr")
	if err := datagen.WriteDiskFormat(path, bank, 1000000, 1, version); err != nil {
		b.Fatal(err)
	}
	rel, err := OpenDisk(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineAll(rel, Config{Buckets: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rel.BytesRead())/float64(b.N), "diskB/op")
}

// BenchmarkMineAllDisk runs the disk workload on the current default
// format (v2 column-major block groups): the counting scan reads and
// decodes contiguous column blocks one window at a time, and the
// sampling pass point-reads only the sampled rows of the numeric
// columns.
func BenchmarkMineAllDisk(b *testing.B) { benchMineAllDisk(b, DiskFormatV2) }

// BenchmarkMineAllDiskV1 is the same workload on the legacy row-major
// format, kept as the baseline for the v2 storage win.
func BenchmarkMineAllDiskV1(b *testing.B) { benchMineAllDisk(b, DiskFormatV1) }

// BenchmarkMineAllDiskV3 is the same workload on the compressed v3
// format: the integer-valued bank columns delta-bit-pack, so the scan
// reads (and the diskB/op metric counts) fewer physical bytes than v2
// at the cost of per-block decoding.
func BenchmarkMineAllDiskV3(b *testing.B) { benchMineAllDisk(b, DiskFormatV3) }

// BenchmarkMineAllDiskSharded is the 1M-tuple MineAll workload over
// the SAME data split across 4 v2 shard files — the sharded backend's
// overhead/benefit relative to BenchmarkMineAllDisk. Each shard is
// scanned through its own block scan; with PEs > 1 the counting scan's
// workers take chunks cut at shard boundaries.
func BenchmarkMineAllDiskSharded(b *testing.B) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		b.Fatal(err)
	}
	manifest := filepath.Join(b.TempDir(), "bank.oprs")
	if err := datagen.WriteSharded(manifest, bank, 1000000, 1, 4, relation.DiskFormatV2); err != nil {
		b.Fatal(err)
	}
	rel, err := OpenSharded(manifest)
	if err != nil {
		b.Fatal(err)
	}
	defer rel.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineAll(rel, Config{Buckets: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rel.BytesRead())/float64(b.N), "diskB/op")
}

// benchScanDisk2of8 measures a selective scan — 2 columns of a d=8
// numeric relation, the shape of a targeted Mine query on a wide
// relation — in the given format, reporting counted disk bytes. On v1
// the scan pays all 8 columns; on v2 it reads only the 2 selected
// column blocks (4x fewer bytes).
func benchScanDisk2of8(b *testing.B, version int) {
	shape, err := datagen.NewPerfShape(8, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "wide.opr")
	const n = 1000000
	if err := datagen.WriteDiskFormat(path, shape, n, 1, version); err != nil {
		b.Fatal(err)
	}
	rel, err := OpenDisk(path)
	if err != nil {
		b.Fatal(err)
	}
	cols := relation.ColumnSet{Numeric: []int{2, 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		err := rel.ScanRange(0, n, cols, func(batch *relation.Batch) error {
			for _, v := range batch.Numeric[0][:batch.Len] {
				sum += v
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rel.BytesRead())/float64(b.N), "diskB/op")
}

// BenchmarkScanDisk2of8 is the selective scan on the v2 columnar
// format.
func BenchmarkScanDisk2of8(b *testing.B) { benchScanDisk2of8(b, DiskFormatV2) }

// BenchmarkScanDisk2of8V1 is the selective scan on the v1 row format.
func BenchmarkScanDisk2of8V1(b *testing.B) { benchScanDisk2of8(b, DiskFormatV1) }

// benchMineDiskTargeted8 measures a targeted Mine query — one numeric
// driver, one Boolean objective — on a 1M-tuple disk relation with
// d=8 numeric attributes. The query touches 2 of the 10 columns, so
// the v2 columnar format reads ~8x fewer bytes than v1's full rows;
// this is the end-to-end miner counterpart of the raw selective-scan
// benchmark above.
func benchMineDiskTargeted8(b *testing.B, version int) {
	shape, err := datagen.NewPerfShape(8, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "wide.opr")
	if err := datagen.WriteDiskFormat(path, shape, 1000000, 1, version); err != nil {
		b.Fatal(err)
	}
	rel, err := OpenDisk(path)
	if err != nil {
		b.Fatal(err)
	}
	s := rel.Schema()
	numeric := s[s.NumericIndices()[3]].Name
	objective := s[s.BooleanIndices()[0]].Name
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Mine(rel, numeric, objective, true, nil, Config{Buckets: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rel.BytesRead())/float64(b.N), "diskB/op")
}

// BenchmarkMineDiskTargeted8 is the targeted query on the v2 columnar
// format.
func BenchmarkMineDiskTargeted8(b *testing.B) { benchMineDiskTargeted8(b, DiskFormatV2) }

// BenchmarkMineDiskTargeted8V1 is the targeted query on the v1 row
// format.
func BenchmarkMineDiskTargeted8V1(b *testing.B) { benchMineDiskTargeted8(b, DiskFormatV1) }
