package datagen

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"optrule/internal/relation"
)

func TestDistributionsBasicRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{Lo: 10, Hi: 20}
	for i := 0; i < 1000; i++ {
		v := u.Sample(rng)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform sample %g out of [10,20)", v)
		}
	}
	ui := UniformInt{Lo: 3, Hi: 7}
	seen := map[float64]bool{}
	for i := 0; i < 1000; i++ {
		v := ui.Sample(rng)
		if v < 3 || v > 7 || v != math.Trunc(v) {
			t.Fatalf("UniformInt sample %g invalid", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("UniformInt hit %d distinct values, want 5", len(seen))
	}
	ln := LogNormal{Mu: 0, Sigma: 1}
	for i := 0; i < 1000; i++ {
		if v := ln.Sample(rng); v <= 0 {
			t.Fatalf("LogNormal sample %g not positive", v)
		}
	}
	z := Zipf{S: 2, Imax: 1000, Unit: 5}
	for i := 0; i < 1000; i++ {
		v := z.Sample(rng)
		if v < 5 || v > 5*1000*1.0001 {
			t.Fatalf("Zipf sample %g out of range", v)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Gaussian{Mean: 100, Std: 15}
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Sample(rng)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-100) > 0.5 {
		t.Errorf("empirical mean %g, want ~100", mean)
	}
	if math.Abs(std-15) > 0.5 {
		t.Errorf("empirical std %g, want ~15", std)
	}
}

func TestMixtureWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Mixture{
		Components: []Distribution{Uniform{0, 1}, Uniform{100, 101}},
		Weights:    []float64{0.25, 0.75},
	}
	high := 0
	n := 20000
	for i := 0; i < n; i++ {
		if m.Sample(rng) > 50 {
			high++
		}
	}
	frac := float64(high) / float64(n)
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("second component frequency %g, want ~0.75", frac)
	}
	// Degenerate mixture.
	if v := (Mixture{}).Sample(rng); v != 0 {
		t.Errorf("empty mixture sample = %g, want 0", v)
	}
}

func TestDistributionStrings(t *testing.T) {
	ds := []Distribution{
		Uniform{0, 1}, UniformInt{1, 5}, Gaussian{0, 1}, LogNormal{0, 1},
		Zipf{S: 2, Imax: 10, Unit: 1}, Mixture{},
	}
	for _, d := range ds {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	bank, err := NewBank(BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := MustMaterialize(bank, 500, 42)
	r2 := MustMaterialize(bank, 500, 42)
	b1, _ := r1.NumericColumn(0)
	b2, _ := r2.NumericColumn(0)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("same seed produced different data at row %d", i)
		}
	}
	r3 := MustMaterialize(bank, 500, 43)
	b3, _ := r3.NumericColumn(0)
	same := true
	for i := range b1 {
		if b1[i] != b3[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical data")
	}
}

func TestMaterializeErrors(t *testing.T) {
	bank, _ := NewBank(BankConfig{})
	if _, err := Materialize(bank, -1, 0); err == nil {
		t.Errorf("negative count accepted")
	}
}

func TestBankPlantedRuleShowsUp(t *testing.T) {
	bank, err := NewBank(BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n := 50000
	rel := MustMaterialize(bank, n, 7)
	planted := bank.Config().CardLoan
	bal, _ := rel.NumericColumn(0)
	loan, _ := rel.BoolColumn(rel.Schema().Index("CardLoan"))
	inYes, inAll, outYes, outAll := 0, 0, 0, 0
	for i := range bal {
		if planted.Contains(bal[i]) {
			inAll++
			if loan[i] {
				inYes++
			}
		} else {
			outAll++
			if loan[i] {
				outYes++
			}
		}
	}
	if inAll == 0 || outAll == 0 {
		t.Fatalf("degenerate split: in=%d out=%d", inAll, outAll)
	}
	inConf := float64(inYes) / float64(inAll)
	outConf := float64(outYes) / float64(outAll)
	if math.Abs(inConf-planted.InsideProb) > 0.03 {
		t.Errorf("inside confidence %g, want ~%g", inConf, planted.InsideProb)
	}
	if math.Abs(outConf-planted.OutsideProb) > 0.03 {
		t.Errorf("outside confidence %g, want ~%g", outConf, planted.OutsideProb)
	}
}

func TestBankConfigValidation(t *testing.T) {
	if _, err := NewBank(BankConfig{CardLoan: PlantedRule{Range: [2]float64{5, 1}, InsideProb: 0.5, OutsideProb: 0.1}}); err == nil {
		t.Errorf("inverted planted range accepted")
	}
	if _, err := NewBank(BankConfig{CardLoan: PlantedRule{Range: [2]float64{1, 5}, InsideProb: 1.5}}); err == nil {
		t.Errorf("probability > 1 accepted")
	}
}

func TestRetailLiftsAndPremium(t *testing.T) {
	ret, err := NewRetail(DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 60000
	rel := MustMaterialize(ret, n, 9)
	s := rel.Schema()
	amount, _ := rel.NumericColumn(0)
	pizza, _ := rel.BoolColumn(s.Index("Pizza"))
	coke, _ := rel.BoolColumn(s.Index("Coke"))
	wine, _ := rel.BoolColumn(s.Index("Wine"))

	// Lift: P(Coke | Pizza) should exceed P(Coke | !Pizza).
	cokeGivenPizza, pizzaCount := 0, 0
	cokeGivenNot, notCount := 0, 0
	for i := 0; i < n; i++ {
		if pizza[i] {
			pizzaCount++
			if coke[i] {
				cokeGivenPizza++
			}
		} else {
			notCount++
			if coke[i] {
				cokeGivenNot++
			}
		}
	}
	pc := float64(cokeGivenPizza) / float64(pizzaCount)
	pn := float64(cokeGivenNot) / float64(notCount)
	if pc <= pn+0.1 {
		t.Errorf("lift missing: P(Coke|Pizza)=%g vs P(Coke|!Pizza)=%g", pc, pn)
	}

	// Premium: wine rate inside the premium amount range should be much
	// higher than outside.
	cfg := ret.Config()
	inYes, inAll, outYes, outAll := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		if amount[i] >= cfg.PremiumRange[0] && amount[i] <= cfg.PremiumRange[1] {
			inAll++
			if wine[i] {
				inYes++
			}
		} else {
			outAll++
			if wine[i] {
				outYes++
			}
		}
	}
	if inAll < 100 {
		t.Fatalf("premium range too rare in generated data: %d tuples", inAll)
	}
	if float64(inYes)/float64(inAll) < 2*float64(outYes)/float64(outAll) {
		t.Errorf("premium association too weak: in=%g out=%g",
			float64(inYes)/float64(inAll), float64(outYes)/float64(outAll))
	}

	// ItemCount must equal the number of true item flags.
	count, _ := rel.NumericColumn(1)
	itemCols := make([][]bool, 0)
	for _, bi := range s.BooleanIndices() {
		col, _ := rel.BoolColumn(bi)
		itemCols = append(itemCols, col)
	}
	for i := 0; i < 200; i++ {
		want := 0
		for _, col := range itemCols {
			if col[i] {
				want++
			}
		}
		if int(count[i]) != want {
			t.Fatalf("row %d: ItemCount=%g, actual items=%d", i, count[i], want)
		}
	}
}

func TestRetailConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  RetailConfig
	}{
		{"no items", RetailConfig{Amount: Uniform{0, 1}}},
		{"bad prob", RetailConfig{Items: []Item{{"A", 1.2}}, Amount: Uniform{0, 1}}},
		{"dup item", RetailConfig{Items: []Item{{"A", 0.5}, {"A", 0.5}}, Amount: Uniform{0, 1}}},
		{"unknown lift src", RetailConfig{Items: []Item{{"A", 0.5}}, Lifts: []Lift{{"X", "A", 2}}, Amount: Uniform{0, 1}}},
		{"unknown lift dst", RetailConfig{Items: []Item{{"A", 0.5}}, Lifts: []Lift{{"A", "X", 2}}, Amount: Uniform{0, 1}}},
		{"backward lift", RetailConfig{Items: []Item{{"A", 0.5}, {"B", 0.5}}, Lifts: []Lift{{"B", "A", 2}}, Amount: Uniform{0, 1}}},
		{"unknown premium", RetailConfig{Items: []Item{{"A", 0.5}}, PremiumItem: "X", Amount: Uniform{0, 1}}},
		{"nil amount", RetailConfig{Items: []Item{{"A", 0.5}}}},
	}
	for _, c := range cases {
		if _, err := NewRetail(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestPerfShapeMatchesPaper(t *testing.T) {
	ps := PaperPerfShape()
	s := ps.Schema()
	if len(s.NumericIndices()) != 8 || len(s.BooleanIndices()) != 8 {
		t.Fatalf("paper shape should be 8 numeric + 8 boolean, got %d + %d",
			len(s.NumericIndices()), len(s.BooleanIndices()))
	}
	rel := MustMaterialize(ps, 1000, 5)
	if rel.NumTuples() != 1000 {
		t.Fatalf("NumTuples = %d", rel.NumTuples())
	}
	// Boolean biases should be spread: B0 rare, B7 common.
	b0, _ := rel.BoolColumn(s.Index("B0"))
	b7, _ := rel.BoolColumn(s.Index("B7"))
	c0, c7 := 0, 0
	for i := range b0 {
		if b0[i] {
			c0++
		}
		if b7[i] {
			c7++
		}
	}
	if c0 >= c7 {
		t.Errorf("expected B0 (p=1/9) rarer than B7 (p=8/9): %d vs %d", c0, c7)
	}
}

func TestPerfShapeValidation(t *testing.T) {
	if _, err := NewPerfShape(0, 3, nil); err == nil {
		t.Errorf("zero numeric attributes accepted")
	}
	if _, err := NewPerfShape(1, -1, nil); err == nil {
		t.Errorf("negative boolean attributes accepted")
	}
}

func TestCorrelatedShape(t *testing.T) {
	planted := PlantedRule{Range: [2]float64{100, 200}, InsideProb: 0.9, OutsideProb: 0.05}
	cs, err := NewCorrelatedShape(2, 2, Uniform{0, 1000}, planted)
	if err != nil {
		t.Fatal(err)
	}
	rel := MustMaterialize(cs, 30000, 17)
	n0, _ := rel.NumericColumn(0)
	b0, _ := rel.BoolColumn(rel.Schema().Index("B0"))
	inYes, inAll := 0, 0
	for i := range n0 {
		if planted.Contains(n0[i]) {
			inAll++
			if b0[i] {
				inYes++
			}
		}
	}
	if inAll < 1000 {
		t.Fatalf("planted range too rare: %d", inAll)
	}
	if got := float64(inYes) / float64(inAll); math.Abs(got-0.9) > 0.05 {
		t.Errorf("inside confidence %g, want ~0.9", got)
	}
	if _, err := NewCorrelatedShape(1, 0, nil, planted); err == nil {
		t.Errorf("no boolean attribute accepted")
	}
	bad := planted
	bad.Range = [2]float64{5, 1}
	if _, err := NewCorrelatedShape(1, 1, nil, bad); err == nil {
		t.Errorf("inverted planted range accepted")
	}
}

func TestWriteDiskRoundTrip(t *testing.T) {
	bank, _ := NewBank(BankConfig{})
	path := filepath.Join(t.TempDir(), "bank.opr")
	if err := WriteDisk(path, bank, 1234, 21); err != nil {
		t.Fatal(err)
	}
	dr, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if dr.NumTuples() != 1234 {
		t.Fatalf("NumTuples = %d, want 1234", dr.NumTuples())
	}
	// Disk contents must equal the in-memory materialization with the
	// same seed.
	mem := MustMaterialize(bank, 1234, 21)
	want, _ := mem.NumericColumn(0)
	at := 0
	err = dr.Scan(relation.ColumnSet{Numeric: []int{0}}, func(b *relation.Batch) error {
		for i := 0; i < b.Len; i++ {
			if b.Numeric[0][i] != want[at] {
				t.Fatalf("row %d differs between disk and memory", at)
			}
			at++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDisk(filepath.Join(t.TempDir(), "x.opr"), bank, -1, 0); err == nil {
		t.Errorf("negative count accepted")
	}
}

// badRowSource wraps a RowSource and returns a wrong-shaped tuple (one
// numeric value missing) as row failAt.
type badRowSource struct {
	RowSource
	failAt, rows int
}

func (s *badRowSource) Row(rng *rand.Rand, nums []float64, bools []bool) ([]float64, []bool) {
	nums, bools = s.RowSource.Row(rng, nums, bools)
	s.rows++
	if s.rows == s.failAt {
		nums = nums[:len(nums)-1]
	}
	return nums, bools
}

// TestWriteShardedCleansUpOnError pins that a sharded write failing
// mid-stream — after a shard has already been committed — leaves no
// file behind, like its single-file twin.
func TestWriteShardedCleansUpOnError(t *testing.T) {
	bank, _ := NewBank(BankConfig{})
	cases := map[string]func(dir string, src RowSource) error{
		"sharded": func(dir string, src RowSource) error {
			return WriteSharded(filepath.Join(dir, "rel.oprs"), src, 400, 3, 4, relation.DiskFormatV2)
		},
		"single": func(dir string, src RowSource) error {
			return WriteDiskFormat(filepath.Join(dir, "rel.opr"), src, 400, 3, relation.DiskFormatV2)
		},
	}
	for name, write := range cases {
		dir := t.TempDir()
		if err := write(dir, &badRowSource{RowSource: bank, failAt: 150}); err == nil {
			t.Fatalf("%s: wrong-shaped row accepted", name)
		}
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("%s: failed write left %s behind", name, e.Name())
		}
	}
}
