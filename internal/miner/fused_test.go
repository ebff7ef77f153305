package miner

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// diskOf materializes the same deterministic tuple stream Materialize
// would produce onto disk, so fused-path tests cover the out-of-core
// relation with bit-identical data.
func diskOf(t *testing.T, src datagen.RowSource, n int, seed int64) *relation.DiskRelation {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rel.opr")
	if err := datagen.WriteDisk(path, src, n, seed); err != nil {
		t.Fatal(err)
	}
	dr, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Remove(path) })
	return dr
}

// sameRules requires rule-for-rule identity, including floating-point
// fields: the fused pipeline draws bit-identical samples and counts in
// the same row order, so results must not merely be close — they must
// be equal.
func sameRules(t *testing.T, name string, fused, legacy *Result) {
	t.Helper()
	if len(fused.Rules) != len(legacy.Rules) {
		t.Fatalf("%s: fused mined %d rules, legacy %d", name, len(fused.Rules), len(legacy.Rules))
	}
	for i := range fused.Rules {
		if !reflect.DeepEqual(fused.Rules[i], legacy.Rules[i]) {
			t.Errorf("%s: rule %d differs:\nfused:  %+v\nlegacy: %+v",
				name, i, fused.Rules[i], legacy.Rules[i])
		}
	}
}

func TestMineAllFusedMatchesLegacy(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	retail, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	gens := []struct {
		name string
		gen  datagen.RowSource
	}{{"bank", bank}, {"retail", retail}}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Buckets: 120, Seed: 7}},
		{"negations+gain", Config{Buckets: 80, Seed: 3, MineNegations: true, MineGain: true}},
		{"exact-domains", Config{Buckets: 60, Seed: 11, ExactDomainLimit: 100}},
		{"parallel-pes", Config{Buckets: 90, Seed: 5, PEs: 4}},
		{"single-bucket", Config{Buckets: 1, Seed: 2}},
	}
	for _, g := range gens {
		mem, err := datagen.Materialize(g.gen, 8000, 42)
		if err != nil {
			t.Fatal(err)
		}
		disk := diskOf(t, g.gen, 8000, 42)
		for _, c := range cfgs {
			fusedMem, err := MineAll(mem, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: fused memory: %v", g.name, c.name, err)
			}
			legacy, err := mineAllPerAttribute(mem, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: legacy: %v", g.name, c.name, err)
			}
			sameRules(t, g.name+"/"+c.name+"/memory", fusedMem, legacy)
			if len(legacy.Rules) == 0 {
				t.Errorf("%s/%s: degenerate differential test, no rules mined", g.name, c.name)
			}

			fusedDisk, err := MineAll(disk, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: fused disk: %v", g.name, c.name, err)
			}
			sameRules(t, g.name+"/"+c.name+"/disk", fusedDisk, legacy)
		}
	}
}

// TestMineAllFusedMatchesLegacyNaNExactDomains pins the hard identity
// corner: a small-domain attribute polluted with NaNs must not get
// finest buckets on EITHER path (NaN can't be a well-ordered cut), so
// both fall back to sampled boundaries and stay rule-identical.
func TestMineAllFusedMatchesLegacyNaNExactDomains(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "Grade", Kind: relation.Numeric}, // 6 distinct values + NaNs
		{Name: "Score", Kind: relation.Numeric},
		{Name: "Pass", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 6000; i++ {
		grade := float64(i % 6)
		if i%11 == 0 {
			grade = math.NaN()
		}
		rel.MustAppend([]float64{grade, rng.Float64() * 100}, []bool{grade >= 3 || rng.Intn(4) == 0})
	}
	cfg := Config{Buckets: 40, Seed: 9, ExactDomainLimit: 50}
	fused, err := MineAll(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := mineAllPerAttribute(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRules(t, "nan-exact-domains", fused, legacy)
	if len(legacy.Rules) == 0 {
		t.Error("degenerate test: no rules mined")
	}
}

// requireTwoPasses asserts the fused pipeline's cost model on c, over
// a relation of n rows counted at pes workers: a sampling pass of
// pointReads point reads and no scan, then a counting pass whose scans
// tile [0, n) exactly once and deliver every row once — one scan at
// pes 1.
func requireTwoPasses(t *testing.T, name string, c *relation.CountingRelation, pointReads, pes, n int) {
	t.Helper()
	if c.PointReads != pointReads || !c.Tiles(0, 0, n) || c.Rows != int64(n) || (pes == 1 && c.Scans != 1) {
		t.Errorf("%s: %d point reads, then scans %v delivering %d rows; want %d point reads, then scans tiling [0,%d) once (one scan at PEs 1)",
			name, c.PointReads, c.Ranges, c.Rows, pointReads, n)
	}
}

// TestMineAllTwoScansOnDisk pins the fused pipeline's cost model: over
// a disk relation, MineAll performs one point-read sampling pass plus
// one counting pass regardless of the number of numeric attributes.
func TestMineAllTwoScansOnDisk(t *testing.T) {
	for _, numAttrs := range []int{1, 3, 8} {
		shape, err := datagen.NewPerfShape(numAttrs, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		disk := diskOf(t, shape, 5000, 9)
		var counting *relation.CountingRelation
		for _, pes := range []int{1, 4} {
			counting = &relation.CountingRelation{R: disk}
			res, err := MineAll(counting, Config{Buckets: 100, Seed: 1, PEs: pes})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rules) == 0 {
				t.Errorf("attrs=%d: no rules mined", numAttrs)
			}
			requireTwoPasses(t, fmt.Sprintf("attrs=%d/PEs=%d", numAttrs, pes), counting, numAttrs, pes, disk.NumTuples())
		}
		// The legacy path must cost d+1 scans on the same relation — the
		// gap the fused engine exists to close.
		countingLegacy := &relation.CountingRelation{R: disk}
		if _, err := mineAllPerAttribute(countingLegacy, Config{Buckets: 100, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if want := 2 * numAttrs; countingLegacy.Scans != want {
			t.Errorf("attrs=%d: legacy issued %d scans, want %d", numAttrs, countingLegacy.Scans, want)
		}
		if numAttrs > 1 && counting.Rows >= countingLegacy.Rows {
			t.Errorf("attrs=%d: fused scans delivered %d rows, legacy %d; fused must stream fewer",
				numAttrs, counting.Rows, countingLegacy.Rows)
		}
	}
}

// TestMineAllTwoScansExactDomains: finest-bucket detection rides the
// sampling pass, so ExactDomainLimit must not add passes. Tracking
// distinct values needs every row, so that pass is one full scan.
func TestMineAllTwoScansExactDomains(t *testing.T) {
	rel, err := datagen.Materialize(mustBank(t), 4000, 21)
	if err != nil {
		t.Fatal(err)
	}
	n := rel.NumTuples()
	for _, pes := range []int{1, 4} {
		counting := &relation.CountingRelation{R: rel}
		res, err := MineAll(counting, Config{Buckets: 100, Seed: 1, ExactDomainLimit: 80, PEs: pes})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rules) == 0 {
			t.Error("no rules mined")
		}
		// A memory relation counts in pes equal-row chunks.
		if counting.PointReads != 0 || counting.Scans != 1+pes || counting.Ranges[0] != [2]int{0, n} ||
			!counting.Tiles(1, 0, n) || counting.Rows != int64(2*n) {
			t.Errorf("PEs=%d: %d point reads and scans %v over %d rows, want one sampling scan of [0,%d) then %d scans tiling it",
				pes, counting.PointReads, counting.Ranges, counting.Rows, n, pes)
		}
	}
}

func mustBank(t *testing.T) datagen.RowSource {
	t.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return bank
}
