package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/datagen"
	"optrule/internal/relation"
)

func TestFig1ShapeMatchesPaper(t *testing.T) {
	res := Fig1(60)
	if len(res.Rows) != 60 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's reading: p_e drops sharply below S/M=40, is < 0.3% at
	// 40, and flattens beyond.
	at := func(ratio, mIdx int) float64 { return res.Rows[ratio-1].PE[mIdx] }
	for mIdx := range res.Ms {
		if at(5, mIdx) < at(40, mIdx) {
			t.Errorf("M=%d: p_e should fall from S/M=5 to 40 (%g vs %g)", res.Ms[mIdx], at(5, mIdx), at(40, mIdx))
		}
		if at(40, mIdx) >= 0.0035 {
			t.Errorf("M=%d: p_e at S/M=40 = %g, want < 0.3%%", res.Ms[mIdx], at(40, mIdx))
		}
	}
	// The derived operating point should be at or below the paper's 40.
	if res.Chosen > 45 || res.Chosen < 10 {
		t.Errorf("chosen S/M = %d, want near the paper's 40", res.Chosen)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "M=10000") {
		t.Errorf("print output missing M=10000 column: %s", buf.String())
	}
}

func TestTable1MatchesPaperNumbers(t *testing.T) {
	res := Table1(100000)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper's support_app column.
	wantSupport := map[int][2]float64{
		10:   {0.10, 0.50},
		50:   {0.26, 0.34},
		100:  {0.28, 0.32},
		500:  {0.296, 0.304},
		1000: {0.298, 0.302},
	}
	for _, row := range res.Rows {
		w := wantSupport[row.Buckets]
		if diff := row.SupportLo - w[0]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("M=%d: support lo %g, want %g", row.Buckets, row.SupportLo, w[0])
		}
		if diff := row.SupportHi - w[1]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("M=%d: support hi %g, want %g", row.Buckets, row.SupportHi, w[1])
		}
		// The measured approximation must fall inside the analytic bound
		// (that is the content of Section 3.4).
		if row.MeasuredSupport < row.SupportLo-1e-9 || row.MeasuredSupport > row.SupportHi+1e-9 {
			t.Errorf("M=%d: measured support %g outside bound [%g, %g]",
				row.Buckets, row.MeasuredSupport, row.SupportLo, row.SupportHi)
		}
		if row.MeasuredConf < row.ConfLo-1e-9 || row.MeasuredConf > row.ConfHi+1e-9 {
			t.Errorf("M=%d: measured conf %g outside bound [%g, %g]",
				row.Buckets, row.MeasuredConf, row.ConfLo, row.ConfHi)
		}
		// Approximation quality improves with M; at M>=500 the measured
		// support should be within 1% of the optimum.
		if row.Buckets >= 500 {
			if d := row.MeasuredSupport - 0.30; d > 0.01 || d < -0.01 {
				t.Errorf("M=%d: measured support %g too far from 30%%", row.Buckets, row.MeasuredSupport)
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Errorf("print output malformed")
	}
}

func TestFig9ShapeSmall(t *testing.T) {
	// Small sizes keep the test fast; the ordering claim is scale-free
	// enough to check at 30–60k tuples.
	res, err := Fig9([]int{30000, 100000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Alg31Seconds <= 0 || row.NaiveSeconds <= 0 || row.VSplitSeconds <= 0 {
			t.Errorf("non-positive timing: %+v", row)
		}
	}
	// Who-wins shape: Algorithm 3.1 beats Naive Sort decisively at the
	// larger size. (At tiny N the fixed 40·M sampling cost can tie them,
	// so only the largest point is asserted, with headroom for timer
	// noise.)
	last := res.Rows[len(res.Rows)-1]
	if last.NaiveSeconds < 1.3*last.Alg31Seconds {
		t.Errorf("N=%d: naive sort (%gs) should clearly exceed algorithm 3.1 (%gs)",
			last.Tuples, last.NaiveSeconds, last.Alg31Seconds)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Errorf("print output malformed")
	}
}

func TestFig9DiskShapeSmall(t *testing.T) {
	res, err := Fig9Disk([]int{20000, 40000}, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Alg31Seconds <= 0 || row.ExternalSeconds <= 0 {
			t.Errorf("non-positive timing: %+v", row)
		}
		// The who-wins claim is asserted on counted I/O, which is
		// deterministic, rather than wall-clock, which on a fast machine
		// ties at these small sizes. The external sort must move every
		// tuple through its spill files on top of the scans both sides
		// share, so its counted work strictly dominates.
		n := int64(row.Tuples)
		if row.Alg31Work <= 0 || row.Alg31Work > 2*n {
			t.Errorf("N=%d: alg3.1 work %d outside (0, 2N]", row.Tuples, row.Alg31Work)
		}
		if row.ExternalWork != 4*n {
			t.Errorf("N=%d: external work %d, want 4N=%d (two scans + spill write/read)",
				row.Tuples, row.ExternalWork, 4*n)
		}
		if row.ExternalWork <= row.Alg31Work {
			t.Errorf("N=%d: external sort work (%d) should exceed sampling work (%d)",
				row.Tuples, row.ExternalWork, row.Alg31Work)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "out-of-core") {
		t.Errorf("print malformed")
	}
}

func TestFig10And11ShapeSmall(t *testing.T) {
	f10 := Fig10([]int{500, 5000}, 5000, 2)
	f11 := Fig11([]int{500, 5000}, 5000, 2)
	for _, res := range []FigRuleResult{f10, f11} {
		if len(res.Rows) != 2 {
			t.Fatalf("%s: rows = %d", res.Name, len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.FastSeconds <= 0 {
				t.Errorf("%s: non-positive fast timing at M=%d", res.Name, row.Buckets)
			}
		}
		// At M=5000 the quadratic baseline must lose by a wide margin
		// (paper: an order of magnitude well before 5000 buckets).
		last := res.Rows[len(res.Rows)-1]
		if last.NaiveSeconds < 10*last.FastSeconds {
			t.Errorf("%s: at M=%d naive %gs vs fast %gs; want >=10x gap",
				res.Name, last.Buckets, last.NaiveSeconds, last.FastSeconds)
		}
		var buf bytes.Buffer
		res.Print(&buf)
		if !strings.Contains(buf.String(), "Figure 1") {
			t.Errorf("%s: print output malformed", res.Name)
		}
	}
}

func TestFigNaiveCapSkips(t *testing.T) {
	res := Fig10([]int{100, 2000}, 500, 3)
	if res.Rows[0].NaiveSeconds == 0 {
		t.Errorf("naive should run at M=100 under cap 500")
	}
	if res.Rows[1].NaiveSeconds != 0 {
		t.Errorf("naive should be skipped at M=2000 under cap 500")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "skipped") {
		t.Errorf("skipped rows should be marked: %s", buf.String())
	}
}

func TestRegionsExperimentShape(t *testing.T) {
	res, err := Regions(16, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]RegionRow{}
	for _, r := range res.Rows {
		byName[r.Workload] = r
		// Class hierarchy holds on every workload.
		if r.ConvexGain < r.RectGain-1e-9 || r.XMonoGain < r.ConvexGain-1e-9 {
			t.Errorf("%s: gain hierarchy violated: %g / %g / %g",
				r.Workload, r.RectGain, r.ConvexGain, r.XMonoGain)
		}
	}
	// On the axis-parallel block all classes tie.
	b := byName["block"]
	if b.XMonoGain > b.RectGain+1e-9 {
		t.Errorf("block: region classes should tie with the rectangle: %g vs %g", b.XMonoGain, b.RectGain)
	}
	// On the diagonal the general classes must win decisively.
	d := byName["diagonal"]
	if d.XMonoGain < 2*d.RectGain {
		t.Errorf("diagonal: x-monotone gain %g should dwarf rectangle gain %g", d.XMonoGain, d.RectGain)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "region classes") {
		t.Errorf("print malformed")
	}
}

func TestParallelSmall(t *testing.T) {
	res, err := Parallel(200000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // 1, 2, 4
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].PEs != 1 || res.Rows[0].Speedup != 1 {
		t.Errorf("first row should be the single-PE baseline: %+v", res.Rows[0])
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "parallel bucketing") {
		t.Errorf("print output malformed")
	}
}

// TestCountScanIsTheCountingScan pins what the §3.3 table times: one
// counting scan of the engine's executor, every row read once, no
// sampling scan (the boundaries are seeded), split across workers when
// PEs > 1.
func TestCountScanIsTheCountingScan(t *testing.T) {
	shape, err := datagen.NewPerfShape(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	mem := datagen.MustMaterialize(shape, n, 3)
	bounds, err := bucketing.SampledBoundaries(mem, 0, 100, 40, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range []int{1, 4} {
		rel := &relation.CountingRelation{R: mem}
		if err := CountScan(rel, 0, bounds, pes); err != nil {
			t.Fatal(err)
		}
		if rel.Rows != n {
			t.Errorf("pes=%d: read %d rows, want %d (one counting scan, no sampling)", pes, rel.Rows, n)
		}
		if pes == 1 && rel.Scans != 1 {
			t.Errorf("pes=1: %d scans, want 1", rel.Scans)
		}
		if pes > 1 && rel.Scans < 2 {
			t.Errorf("pes=%d: %d scans, want the rows split across workers", pes, rel.Scans)
		}
	}
}
