package optrule

import (
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// writeV2V3 writes the same n tuples of src (same seed, hence
// bit-identical data) in the v2 and v3 disk formats and opens them.
func writeV2V3(t *testing.T, src datagen.RowSource, n int, seed int64) (v2, v3 *DiskRelation) {
	t.Helper()
	dir := t.TempDir()
	v2Path := filepath.Join(dir, "rel_v2.opr")
	v3Path := filepath.Join(dir, "rel_v3.opr")
	if err := datagen.WriteDiskFormat(v2Path, src, n, seed, relation.DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	if err := datagen.WriteDiskFormat(v3Path, src, n, seed, relation.DiskFormatV3); err != nil {
		t.Fatal(err)
	}
	var err error
	if v2, err = OpenDisk(v2Path); err != nil {
		t.Fatal(err)
	}
	if v3, err = OpenDisk(v3Path); err != nil {
		t.Fatal(err)
	}
	return v2, v3
}

// TestMineAllV3MatchesV2 is the differential acceptance test of the
// compressed format: the same data mined from a v2 file and a v3
// compressed file must yield rule-for-rule identical MineAll output —
// same rules, same order, same statistics to the last bit — on both
// the bank and the retail workload.
func TestMineAllV3MatchesV2(t *testing.T) {
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
			v2, v3 := writeV2V3(t, tc.src, 40000, 1)
			cfg := Config{Buckets: 300, Seed: 7}
			res2, err := MineAll(v2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res3, err := MineAll(v3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res2.Rules) == 0 {
				t.Fatalf("v2 mined no rules; differential test is vacuous")
			}
			if len(res2.Rules) != len(res3.Rules) {
				t.Fatalf("v2 mined %d rules, v3 mined %d", len(res2.Rules), len(res3.Rules))
			}
			for i := range res2.Rules {
				if res2.Rules[i] != res3.Rules[i] {
					t.Errorf("rule %d differs between formats:\n  v2: %v\n  v3: %v", i, res2.Rules[i], res3.Rules[i])
				}
			}
			if v3.BytesRead() >= v2.BytesRead() {
				t.Errorf("v3 mining read %d bytes, v2 read %d; compression saved nothing",
					v3.BytesRead(), v2.BytesRead())
			}
		})
	}
}

// TestMineAll2DV3MatchesV2 extends the differential check to the 2-D
// engine: pair grids, rectangle rules, and region rules must be
// identical across the two formats.
func TestMineAll2DV3MatchesV2(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v2, v3 := writeV2V3(t, bank, 30000, 5)
	cfg := Config{Seed: 9}
	opt := Options2D{
		Objective: "CardLoan", ObjectiveValue: true,
		Regions:  []RegionClass{XMonotoneClass},
		GridSide: 32,
	}
	res2, err := MineAll2D(v2, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := MineAll2D(v3, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pairs == 0 {
		t.Fatalf("v2 mined no pairs; differential test is vacuous")
	}
	if !reflect.DeepEqual(res2.Rules, res3.Rules) {
		t.Errorf("2-D rectangle rules differ between formats:\n  v2: %v\n  v3: %v", res2.Rules, res3.Rules)
	}
	if !reflect.DeepEqual(res2.Regions, res3.Regions) {
		t.Errorf("2-D region rules differ between formats:\n  v2: %v\n  v3: %v", res2.Regions, res3.Regions)
	}
}

// TestMineV3TargetedQueriesMatchV2 checks the targeted path (Mine with
// a conjunctive condition), which exercises filtered counting — and
// with it the zone-map filter pushdown — over the v3 format.
func TestMineV3TargetedQueriesMatchV2(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v2, v3 := writeV2V3(t, bank, 30000, 4)
	cfg := Config{Buckets: 200, Seed: 11, MinSupport: 0.05, MinConfidence: 0.55}
	conds := []Condition{{Attr: "AutoWithdraw", Value: true}}
	sup2, conf2, err := Mine(v2, "Balance", "CardLoan", true, conds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup3, conf3, err := Mine(v3, "Balance", "CardLoan", true, conds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, a, b *Rule) {
		if (a == nil) != (b == nil) {
			t.Fatalf("%s rule: v2=%v v3=%v", name, a, b)
		}
		if a != nil && *a != *b {
			t.Errorf("%s rule differs between formats:\n  v2: %v\n  v3: %v", name, *a, *b)
		}
	}
	check("support", sup2, sup3)
	check("confidence", conf2, conf3)
}

// TestSessionBatchV3MatchesV2 runs one heterogeneous session batch —
// 1-D rules, a filtered conjunctive query, top-k, an average-operator
// range, and all 2-D pairs — over both formats and requires every
// answer to match field for field. Its mixed tally shapes exercise
// every part of the counting kernel: shared locate passes, several
// filters, target sums and pair grids.
func TestSessionBatchV3MatchesV2(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v2, v3 := writeV2V3(t, bank, 30000, 6)
	cfg := Config{Buckets: 200, Seed: 13}
	batch := []Query{
		{Op: OpRules},
		{Op: OpConjunctive, Numeric: "Balance",
			Objectives: []Condition{{Attr: "CardLoan", Value: true}},
			Conditions: []Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpTopK, Numeric: "ServiceYears", Objective: "CardLoan", ObjectiveValue: true, K: 3},
		{Op: OpAverage, Numeric: "Age", Target: "Balance", MinSupport: 0.1},
		{Op: OpRules2D, Objective: "CardLoan", ObjectiveValue: true, GridSide: 24},
	}
	run := func(rel Relation) []Answer {
		s, err := NewSession(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := s.ExecuteBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		return answers
	}
	a2 := run(v2)
	a3 := run(v3)
	if len(a2) != len(a3) {
		t.Fatalf("answer counts differ: v2=%d v3=%d", len(a2), len(a3))
	}
	for i := range a2 {
		if a2[i].Err != nil || a3[i].Err != nil {
			t.Fatalf("query %d errored: v2=%v v3=%v", i, a2[i].Err, a3[i].Err)
		}
		if len(a2[i].Rules) == 0 && len(a2[i].Rules2D) == 0 && a2[i].Range == nil {
			t.Fatalf("query %d produced nothing on v2; differential test is vacuous", i)
		}
		if !reflect.DeepEqual(a2[i], a3[i]) {
			t.Errorf("answer %d differs between formats:\n  v2: %+v\n  v3: %+v", i, a2[i], a3[i])
		}
	}
}

// TestMineAllV3TwoScanInvariant pins that the fused two-scan pipeline
// survives the compressed format: MineAll over a v3 relation issues
// one point-read sampling pass plus one counting scan.
func TestMineAllV3TwoScanInvariant(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, v3 := writeV2V3(t, bank, 20000, 2)
	counting := &relation.CountingRelation{R: v3}
	res, err := MineAll(counting, Config{Buckets: 200, Seed: 3, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatalf("mined no rules")
	}
	// Bank has 3 numeric attributes: 3 sampling point reads.
	if n := v3.NumTuples(); counting.PointReads != 3 || len(counting.Ranges) != 1 || counting.Ranges[0] != [2]int{0, n} {
		t.Errorf("MineAll over v3 issued %d point reads and scans %v, want 3 point reads and one scan of [0,%d)",
			counting.PointReads, counting.Ranges, n)
	}
}

// TestMineAllShardedV3MatchesSingle pins that a sharded relation whose
// shards are v3 files mines rule-for-rule identically to the same
// tuple stream in one v3 file.
func TestMineAllShardedV3MatchesSingle(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const n, seed = 30000, 8
	single := filepath.Join(dir, "single.opr")
	manifest := filepath.Join(dir, "sharded.oprs")
	if err := datagen.WriteDiskFormat(single, bank, n, seed, relation.DiskFormatV3); err != nil {
		t.Fatal(err)
	}
	if err := datagen.WriteSharded(manifest, bank, n, seed, 4, relation.DiskFormatV3); err != nil {
		t.Fatal(err)
	}
	one, err := OpenDisk(single)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	cfg := Config{Buckets: 250, Seed: 17}
	resOne, err := MineAll(one, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resSharded, err := MineAll(sharded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resOne.Rules) == 0 {
		t.Fatalf("single-file v3 mined no rules; differential test is vacuous")
	}
	if !reflect.DeepEqual(resOne.Rules, resSharded.Rules) {
		t.Errorf("sharded v3 mining differs from single-file v3:\n  single: %v\n  sharded: %v",
			resOne.Rules, resSharded.Rules)
	}
}

// TestConvertDiskClustered pins the public clustering surface: the
// clustered file holds the same tuple multiset sorted by the cluster
// column, exact-domain mining is bit-identical across the two row
// orders, and a conditioned query whose filter is a band function of
// the cluster column reads fewer physical bytes on the clustered
// layout (the zone maps partition instead of overlap).
func TestConvertDiskClustered(t *testing.T) {
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "plain.opr")
	schema := Schema{
		{Name: "Level", Kind: Numeric},
		{Name: "Hot", Kind: Boolean},
		{Name: "Hit", Kind: Boolean},
	}
	dw, err := NewDiskWriterV3(plainPath, schema, 512)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		lvl := float64((i * 7919) % 40) // 40 distinct values, shuffled order
		hot := lvl >= 30
		hit := hot && i%3 != 0 || !hot && i%8 == 0
		if err := dw.Append([]float64{lvl}, []bool{hot, hit}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	clPath := filepath.Join(dir, "clustered.opr")
	if err := ConvertDiskClustered(plainPath, clPath, DiskFormatV3, 0); err != nil {
		t.Fatal(err)
	}
	plain, err := OpenDisk(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	clustered, err := OpenDisk(clPath)
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	if clustered.NumTuples() != n {
		t.Fatalf("clustered file has %d tuples, want %d", clustered.NumTuples(), n)
	}

	// Exact domains (40 distinct Level values) make boundaries a
	// function of the value set, not the row order: identical rules.
	cfg := Config{Buckets: 64, Seed: 5, ExactDomainLimit: 64}
	resPlain, err := MineAll(plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resClustered, err := MineAll(clustered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resPlain.Rules) == 0 {
		t.Fatalf("no rules mined; differential test is vacuous")
	}
	if !reflect.DeepEqual(resPlain.Rules, resClustered.Rules) {
		t.Errorf("exact-domain rules differ between row orders:\n  plain: %v\n  clustered: %v",
			resPlain.Rules, resClustered.Rules)
	}

	// The Hot filter is constant outside the clustered band: the
	// conditioned query must read fewer physical bytes after clustering.
	cond := []Condition{{Attr: "Hot", Value: true}}
	plain.ResetBytesRead()
	if _, _, err := Mine(plain, "Level", "Hit", true, cond, cfg); err != nil {
		t.Fatal(err)
	}
	clustered.ResetBytesRead()
	if _, _, err := Mine(clustered, "Level", "Hit", true, cond, cfg); err != nil {
		t.Fatal(err)
	}
	if cb, pb := clustered.BytesRead(), plain.BytesRead(); cb >= pb {
		t.Errorf("conditioned query read %d bytes clustered vs %d unclustered; clustering saved nothing", cb, pb)
	}
}
