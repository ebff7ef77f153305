package optrule

import (
	"path/filepath"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// writeBothFormats writes the same n tuples of src (same seed, hence
// bit-identical data) in both disk formats and opens them.
func writeBothFormats(t *testing.T, src datagen.RowSource, n int, seed int64) (v1, v2 *DiskRelation) {
	t.Helper()
	dir := t.TempDir()
	v1Path := filepath.Join(dir, "rel_v1.opr")
	v2Path := filepath.Join(dir, "rel_v2.opr")
	if err := datagen.WriteDiskFormat(v1Path, src, n, seed, relation.DiskFormatV1); err != nil {
		t.Fatal(err)
	}
	if err := datagen.WriteDiskFormat(v2Path, src, n, seed, relation.DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	var err error
	if v1, err = OpenDisk(v1Path); err != nil {
		t.Fatal(err)
	}
	if v2, err = OpenDisk(v2Path); err != nil {
		t.Fatal(err)
	}
	return v1, v2
}

// TestMineAllV2MatchesV1 is the differential acceptance test of the
// columnar format: the same data mined from a v1 row-major file and a
// v2 column-major file must yield rule-for-rule identical MineAll
// output — same rules, same order, same statistics to the last bit —
// on both the bank and the retail workload.
func TestMineAllV2MatchesV1(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	retail, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  datagen.RowSource
	}{{"bank", bank}, {"retail", retail}} {
		t.Run(tc.name, func(t *testing.T) {
			v1, v2 := writeBothFormats(t, tc.src, 40000, 1)
			cfg := Config{Buckets: 300, Seed: 7}
			res1, err := MineAll(v1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := MineAll(v2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res1.Rules) == 0 {
				t.Fatalf("v1 mined no rules; differential test is vacuous")
			}
			if len(res1.Rules) != len(res2.Rules) {
				t.Fatalf("v1 mined %d rules, v2 mined %d", len(res1.Rules), len(res2.Rules))
			}
			for i := range res1.Rules {
				if res1.Rules[i] != res2.Rules[i] {
					t.Errorf("rule %d differs between formats:\n  v1: %v\n  v2: %v", i, res1.Rules[i], res2.Rules[i])
				}
			}
		})
	}
}

// TestMineAllV2TwoScanInvariant pins that the fused two-scan pipeline
// of PR 1 survives the storage swap: MineAll over a v2 relation issues
// one point-read sampling pass plus one counting scan.
func TestMineAllV2TwoScanInvariant(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, v2 := writeBothFormats(t, bank, 20000, 2)
	counting := &relation.CountingRelation{R: v2}
	res, err := MineAll(counting, Config{Buckets: 200, Seed: 3, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatalf("mined no rules")
	}
	// Bank has 3 numeric attributes: 3 sampling point reads.
	if n := v2.NumTuples(); counting.PointReads != 3 || len(counting.Ranges) != 1 || counting.Ranges[0] != [2]int{0, n} {
		t.Errorf("MineAll over v2 issued %d point reads and scans %v, want 3 point reads and one scan of [0,%d)",
			counting.PointReads, counting.Ranges, n)
	}
}

// TestMineV2TargetedQueriesMatchV1 extends the differential check to
// the targeted per-attribute path (Mine with a conjunctive condition),
// which exercises filtered counting over the v2 format.
func TestMineV2TargetedQueriesMatchV1(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := writeBothFormats(t, bank, 30000, 4)
	cfg := Config{Buckets: 200, Seed: 11, MinSupport: 0.05, MinConfidence: 0.55}
	conds := []Condition{{Attr: "AutoWithdraw", Value: true}}
	sup1, conf1, err := Mine(v1, "Balance", "CardLoan", true, conds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup2, conf2, err := Mine(v2, "Balance", "CardLoan", true, conds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, a, b *Rule) {
		if (a == nil) != (b == nil) {
			t.Fatalf("%s rule: v1=%v v2=%v", name, a, b)
		}
		if a != nil && *a != *b {
			t.Errorf("%s rule differs between formats:\n  v1: %v\n  v2: %v", name, *a, *b)
		}
	}
	check("support", sup1, sup2)
	check("confidence", conf1, conf2)
}
