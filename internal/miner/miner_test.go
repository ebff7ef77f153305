package miner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

func bankRelation(t testing.TB, n int) (*relation.MemoryRelation, datagen.BankConfig) {
	t.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return datagen.MustMaterialize(bank, n, 101), bank.Config()
}

func TestMineRecoversPlantedRule(t *testing.T) {
	rel, cfg := bankRelation(t, 60000)
	planted := cfg.CardLoan

	supRule, confRule, err := Mine(rel, "Balance", "CardLoan", true, nil, Config{
		MinSupport:    0.05,
		MinConfidence: 0.55,
		Buckets:       500,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if supRule == nil {
		t.Fatal("no optimized-support rule found")
	}
	// The planted range [3000, 20000] has inside confidence 0.65 and
	// outside 0.12, so the optimized-support rule at θ=0.55 should land
	// close to the planted range.
	overlapLo := math.Max(supRule.Low, planted.Range[0])
	overlapHi := math.Min(supRule.High, planted.Range[1])
	if overlapLo >= overlapHi {
		t.Errorf("support rule range [%g, %g] does not overlap planted %v", supRule.Low, supRule.High, planted.Range)
	}
	if supRule.Confidence < 0.55 {
		t.Errorf("support rule confidence %g below threshold", supRule.Confidence)
	}
	// The optimized-support rule maximizes support at confidence >= θ,
	// so it should contain essentially the whole planted high-confidence
	// core (which alone has confidence 0.65 > 0.55) and may legitimately
	// stretch further until dilution pulls confidence down to θ.
	if supRule.Low > planted.Range[0]*1.2 || supRule.High < planted.Range[1]*0.8 {
		t.Errorf("support rule range [%g, %g] fails to cover the planted core %v", supRule.Low, supRule.High, planted.Range)
	}
	if confRule == nil {
		t.Fatal("no optimized-confidence rule found")
	}
	if confRule.Support < 0.05-1e-9 {
		t.Errorf("confidence rule support %g below threshold", confRule.Support)
	}
	// The optimized-confidence rule seeks the highest-confidence cluster
	// of at least 5% support, which lives inside the planted range.
	if confRule.Low < planted.Range[0]*0.7 || confRule.High > planted.Range[1]*1.4 {
		t.Errorf("confidence rule range [%g, %g] should sit inside the planted core %v",
			confRule.Low, confRule.High, planted.Range)
	}
	if confRule.Confidence < supRule.Confidence-1e-9 {
		t.Errorf("optimized-confidence rule (%g) should not be less confident than the support rule (%g)",
			confRule.Confidence, supRule.Confidence)
	}
	if confRule.Lift() < 1.5 {
		t.Errorf("planted rule should show lift, got %g", confRule.Lift())
	}
}

func TestMineAllCoversAllCombinations(t *testing.T) {
	rel, _ := bankRelation(t, 20000)
	res, err := MineAll(rel, Config{Buckets: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 3 numeric × 3 Boolean, two kinds each: up to 18 rules; all
	// combinations should yield at least the optimized-support rule
	// given the generous default thresholds... at minimum expect more
	// than 9 rules and every pair present at least once.
	type key struct{ n, o string }
	seen := map[key]bool{}
	for _, r := range res.Rules {
		seen[key{r.Numeric, r.Objective}] = true
		if r.Support < 0 || r.Support > 1 || r.Confidence < 0 || r.Confidence > 1 {
			t.Errorf("rule out of range: %+v", r)
		}
		if r.Low > r.High {
			t.Errorf("inverted range: %+v", r)
		}
	}
	for _, n := range []string{"Balance", "Age", "ServiceYears"} {
		for _, o := range []string{"CardLoan", "Mortgage", "AutoWithdraw"} {
			if !seen[key{n, o}] {
				t.Errorf("no rule mined for (%s, %s)", n, o)
			}
		}
	}
	// Sorted by lift descending.
	for i := 1; i < len(res.Rules); i++ {
		if res.Rules[i].Lift() > res.Rules[i-1].Lift()+1e-9 {
			t.Errorf("rules not sorted by lift at %d", i)
		}
	}
	if res.Tuples != 20000 {
		t.Errorf("Tuples = %d", res.Tuples)
	}
}

func TestMineAllTopRuleIsPlanted(t *testing.T) {
	rel, _ := bankRelation(t, 40000)
	res, err := MineAll(rel, Config{Buckets: 300, Seed: 5, MinConfidence: 0.55})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules")
	}
	top := res.Rules[0]
	// The strongest associations in the generator are Balance→CardLoan
	// (lift up to ~3.4) and Age→Mortgage (~2.8); the top rule must be
	// one of them.
	okTop := (top.Numeric == "Balance" && top.Objective == "CardLoan") ||
		(top.Numeric == "Age" && top.Objective == "Mortgage")
	if !okTop {
		t.Errorf("top rule is (%s, %s), want a planted association; rule: %s", top.Numeric, top.Objective, top)
	}
}

// TestMineDeterministicAcrossWorkerCounts pins answers across
// Config.Workers, which bounds the 1-D extraction pool, the 2-D
// (pair, kind) task pool and each region kernel's share of it: MineAll
// rule for rule, and one mixed session batch — 1-D rules (all drivers,
// and one under a condition), top-k, conjunctive, average, and 2-D
// rules over every pair at grid 16 with all three rectangle kinds and
// both region classes, plus a two-task single pair whose kernels get
// several workers each — bit for bit at Workers 1, 2, 3 and 8.
func TestMineDeterministicAcrossWorkerCounts(t *testing.T) {
	rel, _ := bankRelation(t, 10000)
	var prev []Rule
	for _, workers := range []int{1, 2, 8} {
		res, err := MineAll(rel, Config{Buckets: 100, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if len(res.Rules) != len(prev) {
				t.Fatalf("workers=%d: %d rules vs %d", workers, len(res.Rules), len(prev))
			}
			for i := range prev {
				if res.Rules[i] != prev[i] {
					t.Fatalf("workers=%d: rule %d differs:\n%v\n%v", workers, i, res.Rules[i], prev[i])
				}
			}
		}
		prev = res.Rules
	}

	allKinds := []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain}
	batch := []Query{
		{Op: OpRules, Kinds: allKinds},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
			Conditions: []Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 3},
		{Op: OpConjunctive, Numeric: "Age",
			Objectives: []Condition{{Attr: "CardLoan", Value: true}},
			Conditions: []Condition{{Attr: "Mortgage", Value: true}}},
		{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
		{Op: OpRules2D, Objective: "CardLoan", ObjectiveValue: true, GridSide: 16,
			Kinds: allKinds, Regions: []RegionClass{XMonotoneClass, RectilinearConvexClass}},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
			ObjectiveValue: true, GridSide: 16, Kinds: []RuleKind{OptimizedGain},
			Regions: []RegionClass{RectilinearConvexClass}},
	}
	var want []Answer
	for _, workers := range []int{1, 2, 3, 8} {
		s, err := NewSession(rel, Config{Buckets: 100, Seed: 11, Workers: workers, MineGain: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ExecuteBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range got {
			if a.Err != nil {
				t.Fatalf("workers=%d: query %d: %v", workers, i, a.Err)
			}
		}
		if len(got[5].Rules2D) == 0 || len(got[5].Regions) == 0 || len(got[6].Regions) == 0 {
			t.Fatalf("workers=%d: 2-D answers mined nothing: %+v", workers, got[5:])
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if path, ok := sameBits(reflect.ValueOf(got[i]), reflect.ValueOf(want[i]), "Answer"); !ok {
				t.Fatalf("workers=%d: query %d differs from workers=1 at %s", workers, i, path)
			}
		}
	}
}

// sameBits reports whether a and b hold the same value, comparing
// floats by their bits (so NaN matches NaN and -0 differs from +0);
// path names the first difference.
func sameBits(a, b reflect.Value, path string) (string, bool) {
	type leaf struct {
		path string
		bits []byte
	}
	var wa, wb []leaf
	bitWalk(a, path, func(p string, bits []byte) { wa = append(wa, leaf{p, bits}) })
	bitWalk(b, path, func(p string, bits []byte) { wb = append(wb, leaf{p, bits}) })
	for i := range min(len(wa), len(wb)) {
		if wa[i].path != wb[i].path || !bytes.Equal(wa[i].bits, wb[i].bits) {
			return wa[i].path, false
		}
	}
	return path, len(wa) == len(wb)
}

// bitWalk calls leaf with the canonical bytes of every part of v, in a
// fixed order: floats as math.Float64bits, integers as 64 bits, the
// dynamic type and nil-ness of every pointer and interface, the length
// and nil-ness of every slice, string and map, and map entries sorted
// by their keys' bytes. Two values with the same walk are equal bit for
// bit; path names the part each leaf comes from.
func bitWalk(v reflect.Value, path string, leaf func(path string, bits []byte)) {
	u64 := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		leaf(path, u64(math.Float64bits(v.Float())))
	case reflect.Bool:
		if v.Bool() {
			leaf(path, []byte{1})
		} else {
			leaf(path, []byte{0})
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		leaf(path, u64(uint64(v.Int())))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		leaf(path, u64(v.Uint()))
	case reflect.String:
		leaf(path, append(u64(uint64(v.Len())), v.String()...))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			leaf(path, []byte("nil"))
			return
		}
		if v.Kind() == reflect.Interface {
			leaf(path, []byte(v.Elem().Type().String()))
		}
		bitWalk(v.Elem(), path, leaf)
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			leaf(path, []byte("nil"))
			return
		}
		leaf(path, u64(uint64(v.Len())))
		for i := 0; i < v.Len(); i++ {
			bitWalk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), leaf)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			bitWalk(v.Field(i), path+"."+v.Type().Field(i).Name, leaf)
		}
	case reflect.Map:
		if v.IsNil() {
			leaf(path, []byte("nil"))
			return
		}
		leaf(path, u64(uint64(v.Len())))
		type entry struct {
			key []byte
			k   reflect.Value
		}
		var entries []entry
		for _, k := range v.MapKeys() {
			var key []byte
			bitWalk(k, "", func(_ string, bits []byte) { key = append(key, bits...) })
			entries = append(entries, entry{key, k})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
		for _, e := range entries {
			p := fmt.Sprintf("%s[%x]", path, e.key)
			leaf(p, e.key)
			bitWalk(v.MapIndex(e.k), p, leaf)
		}
	default:
		panic("bitWalk: unsupported kind " + v.Kind().String())
	}
}

func TestMineDeterministicAcrossPECounts(t *testing.T) {
	rel, _ := bankRelation(t, 15000)
	var prev []Rule
	for _, pes := range []int{1, 4, 16} {
		res, err := MineAll(rel, Config{Buckets: 100, Seed: 11, PEs: pes})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if len(res.Rules) != len(prev) {
				t.Fatalf("PEs=%d: %d rules vs %d", pes, len(res.Rules), len(prev))
			}
			for i := range prev {
				if res.Rules[i] != prev[i] {
					t.Fatalf("PEs=%d: rule %d differs", pes, i)
				}
			}
		}
		prev = res.Rules
	}
}

func TestMineWithConjunctiveCondition(t *testing.T) {
	ret, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	rel := datagen.MustMaterialize(ret, 40000, 19)
	// Generalized rule: (Amount ∈ I) ∧ (Pizza=yes) ⇒ (Coke=yes).
	supRule, _, err := Mine(rel, "Amount", "Coke", true,
		[]Condition{{Attr: "Pizza", Value: true}}, Config{Buckets: 200, MinConfidence: 0.55, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if supRule == nil {
		t.Fatal("no rule under condition (Pizza=yes); lifted P(Coke|Pizza)=0.7 should exceed 0.55")
	}
	if !strings.Contains(supRule.Condition, "Pizza=yes") {
		t.Errorf("condition not recorded: %q", supRule.Condition)
	}
	if !strings.Contains(supRule.String(), "Pizza=yes") {
		t.Errorf("String() omits condition: %s", supRule)
	}
	// Baseline under the condition should be ~0.7 (lifted), not ~0.35.
	if supRule.Baseline < 0.6 {
		t.Errorf("conditional baseline = %g, want ~0.7", supRule.Baseline)
	}

	// The unconditional rule has a much lower baseline.
	unc, _, err := Mine(rel, "Amount", "Coke", true, nil, Config{Buckets: 200, MinConfidence: 0.3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if unc == nil {
		t.Fatal("no unconditional rule")
	}
	if unc.Baseline >= supRule.Baseline {
		t.Errorf("unconditional baseline %g should be below conditional %g", unc.Baseline, supRule.Baseline)
	}
}

func TestMineNegations(t *testing.T) {
	rel, _ := bankRelation(t, 10000)
	res, err := MineAll(rel, Config{Buckets: 100, Seed: 2, MineNegations: true})
	if err != nil {
		t.Fatal(err)
	}
	sawNeg := false
	for _, r := range res.Rules {
		if !r.ObjectiveValue {
			sawNeg = true
			if !strings.Contains(r.String(), "=no") {
				t.Errorf("negated rule prints wrong: %s", r)
			}
		}
	}
	if !sawNeg {
		t.Errorf("MineNegations produced no (C=no) rules")
	}
}

func TestMineValidation(t *testing.T) {
	rel, _ := bankRelation(t, 100)
	if _, _, err := Mine(rel, "Nope", "CardLoan", true, nil, Config{}); err == nil {
		t.Errorf("unknown numeric attribute accepted")
	}
	if _, _, err := Mine(rel, "CardLoan", "CardLoan", true, nil, Config{}); err == nil {
		t.Errorf("boolean as numeric accepted")
	}
	if _, _, err := Mine(rel, "Balance", "Balance", true, nil, Config{}); err == nil {
		t.Errorf("numeric as objective accepted")
	}
	if _, _, err := Mine(rel, "Balance", "CardLoan", true, []Condition{{Attr: "Balance"}}, Config{}); err == nil {
		t.Errorf("numeric condition accepted")
	}
	if _, err := MineAll(rel, Config{MinSupport: 1.5}); err == nil {
		t.Errorf("MinSupport > 1 accepted")
	}
	if _, err := MineAll(rel, Config{MinConfidence: -0.1}); err == nil {
		t.Errorf("negative MinConfidence accepted")
	}
	if _, err := MineAll(rel, Config{Buckets: -5}); err == nil {
		t.Errorf("negative bucket count accepted")
	}
	empty := relation.MustNewMemoryRelation(rel.Schema())
	if _, err := MineAll(empty, Config{}); err == nil {
		t.Errorf("empty relation accepted")
	}
	boolOnly := relation.MustNewMemoryRelation(relation.Schema{{Name: "B", Kind: relation.Boolean}})
	boolOnly.MustAppend(nil, []bool{true})
	if _, err := MineAll(boolOnly, Config{}); err == nil {
		t.Errorf("relation without numeric attributes accepted")
	}
	numOnly := relation.MustNewMemoryRelation(relation.Schema{{Name: "X", Kind: relation.Numeric}})
	numOnly.MustAppend([]float64{1}, nil)
	if _, err := MineAll(numOnly, Config{}); err == nil {
		t.Errorf("relation without boolean attributes accepted")
	}
}

func TestMineFilterExcludesEverything(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Boolean},
	})
	for i := 0; i < 100; i++ {
		rel.MustAppend([]float64{float64(i)}, []bool{false}) // B always no
	}
	sup, conf, err := Mine(rel, "X", "B", true, []Condition{{Attr: "B", Value: true}}, Config{Buckets: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sup != nil || conf != nil {
		t.Errorf("rules mined from zero filtered tuples: %v %v", sup, conf)
	}
}

func TestRuleKindJSON(t *testing.T) {
	b, err := json.Marshal(OptimizedConfidence)
	if err != nil || string(b) != `"optimized-confidence"` {
		t.Errorf("RuleKind JSON = %s (%v)", b, err)
	}
	r := Rule{Kind: OptimizedGain, Numeric: "X", Objective: "B", Confidence: 0.5}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"optimized-gain"`) {
		t.Errorf("rule JSON missing kind name: %s", out)
	}
}

func TestRulePValue(t *testing.T) {
	// Strong planted rule: tiny p-value. Null-level rule: p around 0.5.
	strong := Rule{Count: 1000, Confidence: 0.65, Baseline: 0.2}
	if p := strong.PValue(); p > 1e-9 {
		t.Errorf("strong rule p-value %g, want tiny", p)
	}
	nullish := Rule{Count: 1000, Confidence: 0.2, Baseline: 0.2}
	if p := nullish.PValue(); p < 0.4 || p > 0.6 {
		t.Errorf("null rule p-value %g, want ~0.5", p)
	}
	if p := (Rule{Count: 0, Confidence: 1, Baseline: 0.5}).PValue(); p != 1 {
		t.Errorf("degenerate rule p-value %g, want 1", p)
	}
	// Mined planted rules should be overwhelmingly significant.
	rel, _ := bankRelation(t, 30000)
	_, conf, err := Mine(rel, "Balance", "CardLoan", true, nil, Config{Buckets: 200, Seed: 1})
	if err != nil || conf == nil {
		t.Fatal(err)
	}
	if p := conf.PValue(); p > 1e-12 {
		t.Errorf("planted rule p-value %g, want ≈0", p)
	}
}

func TestRuleStringAndLift(t *testing.T) {
	r := Rule{
		Kind: OptimizedConfidence, Numeric: "Balance", Low: 100, High: 200,
		Objective: "CardLoan", ObjectiveValue: true,
		Support: 0.25, Confidence: 0.8, Baseline: 0.2, Count: 250,
	}
	s := r.String()
	for _, want := range []string{"Balance", "[100, 200]", "CardLoan=yes", "optimized-confidence", "80.00%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if r.Lift() != 4 {
		t.Errorf("Lift = %g, want 4", r.Lift())
	}
	r.Baseline = 0
	if !math.IsInf(r.Lift(), 1) {
		t.Errorf("zero baseline should give +Inf lift")
	}
	if OptimizedSupport.String() != "optimized-support" || RuleKind(9).String() == "" {
		t.Errorf("RuleKind strings wrong")
	}
}
