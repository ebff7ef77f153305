package miner

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// diskOfFormat materializes the same deterministic tuple stream onto
// disk in the requested format version, so the 2-D differential tests
// cover the row-major v1 and columnar v2 out-of-core paths with
// bit-identical data.
func diskOfFormat(t *testing.T, src datagen.RowSource, n int, seed int64, version int) *relation.DiskRelation {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rel.opr")
	if err := datagen.WriteDiskFormat(path, src, n, seed, version); err != nil {
		t.Fatal(err)
	}
	dr, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	return dr
}

// twoDimRelations yields the bank and retail generators over memory,
// v1 disk, and v2 disk backends — six relations with identical tuples
// per generator.
func twoDimRelations(t *testing.T, n int) map[string]relation.Relation {
	t.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	retail, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]relation.Relation{}
	for name, gen := range map[string]datagen.RowSource{"bank": bank, "retail": retail} {
		mem, err := datagen.Materialize(gen, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		rels[name+"/memory"] = mem
		rels[name+"/diskv1"] = diskOfFormat(t, gen, n, 42, relation.DiskFormatV1)
		rels[name+"/diskv2"] = diskOfFormat(t, gen, n, 42, relation.DiskFormatV2)
	}
	return rels
}

// TestMine2DFusedMatchesPerPair pins the rebuilt Mine2D (fused
// sampling + parallel kernels, two scans) rule-for-rule identical to
// the legacy per-pair pipeline (two sampling passes + serial kernels,
// three scans) across generators, storage backends, and rule kinds.
func TestMine2DFusedMatchesPerPair(t *testing.T) {
	cfg := Config{MinSupport: 0.02, MinConfidence: 0.5, Seed: 7}
	for name, rel := range twoDimRelations(t, 6000) {
		s := rel.Schema()
		nums := s.NumericIndices()
		a, b := s[nums[0]].Name, s[nums[1]].Name
		obj := s[s.BooleanIndices()[0]].Name
		for _, kind := range []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain} {
			fused, err := Mine2D(rel, a, b, obj, true, kind, 24, cfg)
			if err != nil {
				t.Fatalf("%s/%v: fused: %v", name, kind, err)
			}
			legacy, err := mine2DPerPair(rel, a, b, obj, true, kind, 24, cfg)
			if err != nil {
				t.Fatalf("%s/%v: legacy: %v", name, kind, err)
			}
			if !reflect.DeepEqual(fused, legacy) {
				t.Errorf("%s/%v:\nfused:  %+v\nlegacy: %+v", name, kind, fused, legacy)
			}
		}
	}
}

// TestRegionFusedMatchesPerPair does the same for the x-monotone and
// rectilinear-convex gain DPs.
func TestRegionFusedMatchesPerPair(t *testing.T) {
	cfg := Config{MinConfidence: 0.4, Seed: 11}
	for name, rel := range twoDimRelations(t, 5000) {
		s := rel.Schema()
		nums := s.NumericIndices()
		a, b := s[nums[0]].Name, s[nums[1]].Name
		obj := s[s.BooleanIndices()[0]].Name
		for _, class := range []RegionClass{XMonotoneClass, RectilinearConvexClass} {
			var fused, legacy *RegionRule
			var err error
			switch class {
			case XMonotoneClass:
				fused, err = MineXMonotone(rel, a, b, obj, true, 16, cfg)
			default:
				fused, err = MineRectilinearConvex(rel, a, b, obj, true, 16, cfg)
			}
			if err != nil {
				t.Fatalf("%s/%v: fused: %v", name, class, err)
			}
			legacy, err = mineRegionPerPair(rel, a, b, obj, true, 16, cfg, class)
			if err != nil {
				t.Fatalf("%s/%v: legacy: %v", name, class, err)
			}
			if !reflect.DeepEqual(fused, legacy) {
				t.Errorf("%s/%v:\nfused:  %+v\nlegacy: %+v", name, class, fused, legacy)
			}
			if legacy == nil {
				t.Logf("%s/%v: no region with positive gain (still a valid differential point)", name, class)
			}
		}
	}
}

// TestMineAll2DMatchesPerPairUnion pins the all-pairs engine against
// the union of legacy per-pair results: every (pair, kind) rectangle
// and every (pair, class) region must appear, identically, and nothing
// else.
func TestMineAll2DMatchesPerPairUnion(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 8000, 42)
	if err != nil {
		t.Fatal(err)
	}
	s := rel.Schema()
	var names []string
	for _, i := range s.NumericIndices() {
		names = append(names, s[i].Name)
	}
	obj := s[s.BooleanIndices()[0]].Name
	cfg := Config{MinSupport: 0.02, MinConfidence: 0.5, Seed: 3}
	kinds := []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain}
	classes := []RegionClass{XMonotoneClass, RectilinearConvexClass}

	res, err := MineAll2D(rel, Options2D{
		Numerics: names, Objective: obj, ObjectiveValue: true,
		Kinds: kinds, Regions: classes, GridSide: 16,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wantPairs := len(names) * (len(names) - 1) / 2; res.Pairs != wantPairs {
		t.Errorf("Pairs = %d, want %d", res.Pairs, wantPairs)
	}

	var wantRules []Rule2D
	var wantRegions []RegionRule
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			for _, kind := range kinds {
				r, err := mine2DPerPair(rel, names[i], names[j], obj, true, kind, 16, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r != nil {
					wantRules = append(wantRules, *r)
				}
			}
			for _, class := range classes {
				r, err := mineRegionPerPair(rel, names[i], names[j], obj, true, 16, cfg, class)
				if err != nil {
					t.Fatal(err)
				}
				if r != nil {
					wantRegions = append(wantRegions, *r)
				}
			}
		}
	}
	if len(wantRules) == 0 || len(wantRegions) == 0 {
		t.Fatalf("degenerate differential test: %d rules, %d regions from the legacy path",
			len(wantRules), len(wantRegions))
	}
	if len(res.Rules) != len(wantRules) {
		t.Fatalf("MineAll2D mined %d rectangle rules, legacy union %d", len(res.Rules), len(wantRules))
	}
	// MineAll2D sorts by lift; match rules by identity regardless of order.
	for _, want := range wantRules {
		found := false
		for _, got := range res.Rules {
			if reflect.DeepEqual(got, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("legacy rule missing from MineAll2D: %+v", want)
		}
	}
	if len(res.Regions) != len(wantRegions) {
		t.Fatalf("MineAll2D mined %d region rules, legacy union %d", len(res.Regions), len(wantRegions))
	}
	for _, want := range wantRegions {
		found := false
		for _, got := range res.Regions {
			if reflect.DeepEqual(got, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("legacy region missing from MineAll2D: %+v", want)
		}
	}
	// Sort invariants.
	for i := 1; i < len(res.Rules); i++ {
		if res.Rules[i-1].Lift() < res.Rules[i].Lift() {
			t.Errorf("Rules not sorted by lift at %d", i)
		}
	}
	for i := 1; i < len(res.Regions); i++ {
		if res.Regions[i-1].Gain < res.Regions[i].Gain {
			t.Errorf("Regions not sorted by gain at %d", i)
		}
	}
}

// TestMine2DFusedMatchesPerPairNaN pins the NaN corner: a tuple joins
// a pair's grid (and its value-range extremes) only when BOTH values
// are finite, so per-pair extreme tracking must match the legacy
// path's row filtering exactly.
func TestMine2DFusedMatchesPerPairNaN(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Numeric},
		{Name: "Hit", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 9000; i++ {
		a := rng.Float64() * 100
		b := rng.Float64() * 10
		c := rng.NormFloat64()
		if i%7 == 0 {
			b = math.NaN()
		}
		if i%11 == 0 {
			c = math.NaN()
		}
		hot := a > 30 && a < 60 && b > 2 && b < 5
		rel.MustAppend([]float64{a, b, c}, []bool{hot && rng.Float64() < 0.8 || rng.Float64() < 0.05})
	}
	cfg := Config{MinSupport: 0.02, MinConfidence: 0.5, Seed: 9}
	for _, pair := range [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}} {
		for _, kind := range []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain} {
			fused, err := Mine2D(rel, pair[0], pair[1], "Hit", true, kind, 20, cfg)
			if err != nil {
				t.Fatalf("%v/%v fused: %v", pair, kind, err)
			}
			legacy, err := mine2DPerPair(rel, pair[0], pair[1], "Hit", true, kind, 20, cfg)
			if err != nil {
				t.Fatalf("%v/%v legacy: %v", pair, kind, err)
			}
			if !reflect.DeepEqual(fused, legacy) {
				t.Errorf("%v/%v:\nfused:  %+v\nlegacy: %+v", pair, kind, fused, legacy)
			}
		}
	}
}

// TestMineAll2DTwoScans pins the fused 2-D pipeline's cost model: over
// a relation with d numeric attributes (d(d−1)/2 pairs), MineAll2D
// performs one point-read sampling pass plus one counting scan, while the
// legacy per-pair path pays three scans per pair.
func TestMineAll2DTwoScans(t *testing.T) {
	for _, numAttrs := range []int{4, 6} {
		shape, err := datagen.NewPerfShape(numAttrs, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		disk := diskOfFormat(t, shape, 6000, 9, relation.DiskFormatV2)
		s := disk.Schema()
		obj := s[s.BooleanIndices()[0]].Name
		counting := &relation.CountingRelation{R: disk}
		res, err := MineAll2D(counting, Options2D{Objective: obj, ObjectiveValue: true, GridSide: 16}, Config{Seed: 1, PEs: 1})
		if err != nil {
			t.Fatal(err)
		}
		pairs := numAttrs * (numAttrs - 1) / 2
		if res.Pairs != pairs {
			t.Errorf("attrs=%d: Pairs = %d, want %d", numAttrs, res.Pairs, pairs)
		}
		if len(res.Rules) == 0 {
			t.Errorf("attrs=%d: no rules mined", numAttrs)
		}
		requireTwoPasses(t, fmt.Sprintf("attrs=%d", numAttrs), counting, numAttrs, 1, disk.NumTuples())
		// The legacy path costs 3 scans PER PAIR on the same relation —
		// the gap the fused engine exists to close.
		fusedBytes := disk.BytesRead()
		disk.ResetBytesRead()
		countingLegacy := &relation.CountingRelation{R: disk}
		nums := s.NumericIndices()
		for i := 0; i < len(nums); i++ {
			for j := i + 1; j < len(nums); j++ {
				if _, err := mine2DPerPair(countingLegacy, s[nums[i]].Name, s[nums[j]].Name,
					obj, true, OptimizedConfidence, 16, Config{Seed: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if want := 3 * pairs; countingLegacy.Scans != want {
			t.Errorf("attrs=%d: legacy issued %d scans, want %d", numAttrs, countingLegacy.Scans, want)
		}
		if legacyBytes := disk.BytesRead(); fusedBytes >= legacyBytes {
			t.Errorf("attrs=%d: fused engine read %d bytes, per-pair loop %d; fused must read fewer",
				numAttrs, fusedBytes, legacyBytes)
		}
	}
}

// TestMineAll2DSingleRegionOnly covers the explicit-empty-Kinds path:
// regions only, no rectangles.
func TestMineAll2DSingleRegionOnly(t *testing.T) {
	rel := planted2DRelation(t, 20000)
	res, err := MineAll2D(rel, Options2D{
		Numerics: []string{"Age", "Balance"}, Objective: "CardLoan", ObjectiveValue: true,
		Kinds: []RuleKind{}, Regions: []RegionClass{XMonotoneClass}, GridSide: 16,
	}, Config{MinConfidence: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) != 0 {
		t.Errorf("explicit empty Kinds still mined %d rectangles", len(res.Rules))
	}
	if len(res.Regions) != 1 {
		t.Fatalf("want 1 x-monotone region, got %d", len(res.Regions))
	}
	if res.Regions[0].Class != XMonotoneClass || res.Regions[0].Gain <= 0 {
		t.Errorf("bad region: %+v", res.Regions[0])
	}
}

// TestMineAll2DValidation covers the request validation surface.
func TestMineAll2DValidation(t *testing.T) {
	rel := planted2DRelation(t, 200)
	obj := "CardLoan"
	cases := []Options2D{
		{Numerics: []string{"Age"}, Objective: obj},                                                    // one attribute
		{Numerics: []string{"Age", "Nope"}, Objective: obj},                                            // unknown attribute
		{Numerics: []string{"Age", "Age"}, Objective: obj},                                             // duplicate
		{Numerics: []string{"Age", "Balance"}, Objective: "Nope"},                                      // unknown objective
		{Numerics: []string{"Age", "Balance"}, Objective: "Age"},                                       // non-Boolean objective
		{Numerics: []string{"Age", "Balance"}, Objective: obj, GridSide: -2},                           // bad side
		{Numerics: []string{"Age", "Balance"}, Objective: obj, Kinds: []RuleKind{RuleKind(9)}},         // bad kind
		{Numerics: []string{"Age", "Balance"}, Objective: obj, Regions: []RegionClass{RegionClass(9)}}, // bad class
		{Numerics: []string{"Age", "Balance"}, Objective: obj, Regions: []RegionClass{RectangleClass}}, // rect via Regions
	}
	for i, opt := range cases {
		if _, err := MineAll2D(rel, opt, Config{}); err == nil {
			t.Errorf("case %d: invalid request accepted: %+v", i, opt)
		}
	}
	empty := relation.MustNewMemoryRelation(rel.Schema())
	if _, err := MineAll2D(empty, Options2D{Objective: obj}, Config{}); err == nil {
		t.Errorf("empty relation accepted")
	}
}
