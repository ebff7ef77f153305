package bucketing

import (
	"math"
	"math/rand"
	"testing"

	"optrule/internal/relation"
)

// nanRelation mixes valid values with NaNs (every 5th driver value).
func nanRelation(t testing.TB, n int) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		if i%5 == 0 {
			x = math.NaN()
		}
		rel.MustAppend([]float64{x}, []bool{i%2 == 0})
	}
	return rel
}

func TestCountSkipsNaNDrivers(t *testing.T) {
	n := 1000
	rel := nanRelation(t, n)
	bounds, err := NewBoundaries([]float64{25, 50, 75})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Count(rel, 0, bounds, Options{Bools: []BoolCond{{Attr: 1, Want: true}}, TrackExtremes: true})
	if err != nil {
		t.Fatal(err)
	}
	wantNaN := n / 5
	if c.NaNs != wantNaN {
		t.Errorf("NaNs = %d, want %d", c.NaNs, wantNaN)
	}
	if c.N != n-wantNaN {
		t.Errorf("N = %d, want %d", c.N, n-wantNaN)
	}
	if c.Total != n {
		t.Errorf("Total = %d, want %d", c.Total, n)
	}
	total := 0
	for _, u := range c.U {
		total += u
	}
	if total != c.N {
		t.Errorf("bucket sizes sum to %d, want N=%d", total, c.N)
	}
	for i := range c.MinVal {
		if math.IsNaN(c.MinVal[i]) || math.IsNaN(c.MaxVal[i]) {
			t.Errorf("NaN leaked into bucket %d extremes", i)
		}
	}
	// NaNs survive Compact.
	compact, _ := c.Compact()
	if compact.NaNs != c.NaNs {
		t.Errorf("compact lost NaN count")
	}
}

func TestSampledBoundariesWithNaNs(t *testing.T) {
	rel := nanRelation(t, 5000)
	rng := rand.New(rand.NewSource(7))
	bounds, err := SampledBoundaries(rel, 0, 20, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range bounds.Cuts() {
		if math.IsNaN(cut) {
			t.Fatalf("NaN cut point: %v", bounds.Cuts())
		}
	}
}

func TestSampledBoundariesAllNaN(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{{Name: "X", Kind: relation.Numeric}})
	for i := 0; i < 100; i++ {
		rel.MustAppend([]float64{math.NaN()}, nil)
	}
	rng := rand.New(rand.NewSource(7))
	if _, err := SampledBoundaries(rel, 0, 10, 40, rng); err == nil {
		t.Errorf("all-NaN column accepted")
	}
}
