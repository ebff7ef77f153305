package miner

import (
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

// TestMineAllTwoScansOnDisk pins the fused pipeline's cost model: over
// a disk relation, MineAll performs exactly one sampling scan plus one
// counting scan regardless of the number of numeric attributes.
func TestMineAllTwoScansOnDisk(t *testing.T) {
	for _, numAttrs := range []int{1, 3, 8} {
		shape, err := datagen.NewPerfShape(numAttrs, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		disk := diskOf(t, shape, 5000, 9)
		counting := &relation.CountingRelation{R: disk}
		res, err := MineAll(counting, Config{Buckets: 100, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rules) == 0 {
			t.Errorf("attrs=%d: no rules mined", numAttrs)
		}
		if counting.Scans != 2 {
			t.Errorf("attrs=%d: MineAll issued %d scans, want exactly 2 (sampling + counting)",
				numAttrs, counting.Scans)
		}
		// The sampling scan may abort early once every sample index is
		// satisfied, so total rows delivered are at most two full passes.
		if max := int64(2 * disk.NumTuples()); counting.Rows > max {
			t.Errorf("attrs=%d: scans delivered %d rows, want <= %d (two full passes)",
				numAttrs, counting.Rows, max)
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
// sampling scan, so ExactDomainLimit must not add passes.
func TestMineAllTwoScansExactDomains(t *testing.T) {
	rel, err := datagen.Materialize(mustBank(t), 4000, 21)
	if err != nil {
		t.Fatal(err)
	}
	counting := &relation.CountingRelation{R: rel}
	res, err := MineAll(counting, Config{Buckets: 100, Seed: 1, ExactDomainLimit: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Error("no rules mined")
	}
	if counting.Scans != 2 {
		t.Errorf("MineAll with ExactDomainLimit issued %d scans, want exactly 2", counting.Scans)
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
