package bucketing

import (
	"math"
	"reflect"
	"testing"

	"optrule/internal/relation"
)

// fourBucketFixture builds a relation over X ∈ {5, 15, 25, 35} with a
// Boolean C and target T, plus boundaries {10, 20, 30} so each distinct
// X value is its own bucket.
func fourBucketFixture(t *testing.T) (*relation.MemoryRelation, Boundaries) {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
		{Name: "D", Kind: relation.Boolean},
	})
	// (X, T, C, D) rows: bucket0 has 2 rows 1 C-yes; bucket1 has 3 rows
	// 2 C-yes; bucket2 has 1 row 0 C-yes; bucket3 has 2 rows 2 C-yes.
	rows := []struct {
		x, tval float64
		c, d    bool
	}{
		{5, 1, true, true},
		{7, 2, false, true},
		{15, 10, true, false},
		{16, 20, true, true},
		{17, 30, false, false},
		{25, 100, false, true},
		{35, 1000, true, true},
		{36, 2000, true, false},
	}
	for _, r := range rows {
		rel.MustAppend([]float64{r.x, r.tval}, []bool{r.c, r.d})
	}
	b, err := NewBoundaries([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	return rel, b
}

func TestCountBasic(t *testing.T) {
	rel, b := fourBucketFixture(t)
	c, err := Count(rel, 0, b, Options{
		Bools:   []BoolCond{{Attr: 2, Want: true}},
		Targets: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 8 || c.Total != 8 {
		t.Errorf("N=%d Total=%d, want 8/8", c.N, c.Total)
	}
	if !reflect.DeepEqual(c.U, []int{2, 3, 1, 2}) {
		t.Errorf("U = %v", c.U)
	}
	if !reflect.DeepEqual(c.V[0], []int{1, 2, 0, 2}) {
		t.Errorf("V = %v", c.V[0])
	}
	if !reflect.DeepEqual(c.Sum[0], []float64{3, 60, 100, 3000}) {
		t.Errorf("Sum = %v", c.Sum[0])
	}
}

func TestCountWantNo(t *testing.T) {
	rel, b := fourBucketFixture(t)
	c, err := Count(rel, 0, b, Options{Bools: []BoolCond{{Attr: 2, Want: false}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.V[0], []int{1, 1, 1, 0}) {
		t.Errorf("V for C=no: %v", c.V[0])
	}
}

func TestCountWithFilter(t *testing.T) {
	rel, b := fourBucketFixture(t)
	// Filter D=yes keeps rows 0,1,3,5,6: buckets sizes 2,1,1,1.
	c, err := Count(rel, 0, b, Options{
		Bools:  []BoolCond{{Attr: 2, Want: true}},
		Filter: []BoolCond{{Attr: 3, Want: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total != 8 || c.N != 5 {
		t.Errorf("Total=%d N=%d, want 8/5", c.Total, c.N)
	}
	if !reflect.DeepEqual(c.U, []int{2, 1, 1, 1}) {
		t.Errorf("filtered U = %v", c.U)
	}
	if !reflect.DeepEqual(c.V[0], []int{1, 1, 0, 1}) {
		t.Errorf("filtered V = %v", c.V[0])
	}
}

func TestCountConjunctiveFilter(t *testing.T) {
	rel, b := fourBucketFixture(t)
	// C=yes AND D=yes keeps rows 0,3,6.
	c, err := Count(rel, 0, b, Options{
		Filter: []BoolCond{{Attr: 2, Want: true}, {Attr: 3, Want: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 3 {
		t.Errorf("N = %d, want 3", c.N)
	}
	if !reflect.DeepEqual(c.U, []int{1, 1, 0, 1}) {
		t.Errorf("U = %v", c.U)
	}
}

func TestCountTrackExtremes(t *testing.T) {
	rel, b := fourBucketFixture(t)
	c, err := Count(rel, 0, b, Options{TrackExtremes: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.MinVal[0] != 5 || c.MaxVal[0] != 7 {
		t.Errorf("bucket 0 extremes = [%g, %g], want [5,7]", c.MinVal[0], c.MaxVal[0])
	}
	if c.MinVal[1] != 15 || c.MaxVal[1] != 17 {
		t.Errorf("bucket 1 extremes = [%g, %g], want [15,17]", c.MinVal[1], c.MaxVal[1])
	}
	// Filter that empties a bucket leaves inf extremes there.
	c2, err := Count(rel, 0, b, Options{TrackExtremes: true, Filter: []BoolCond{{Attr: 2, Want: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(c2.MinVal[2], 1) || !math.IsInf(c2.MaxVal[2], -1) {
		t.Errorf("empty bucket extremes should be ±Inf: [%g, %g]", c2.MinVal[2], c2.MaxVal[2])
	}
}

func TestCountValidation(t *testing.T) {
	rel, b := fourBucketFixture(t)
	cases := []struct {
		name   string
		driver int
		opts   Options
	}{
		{"driver is bool", 2, Options{}},
		{"driver out of range", 9, Options{}},
		{"objective is numeric", 0, Options{Bools: []BoolCond{{Attr: 1}}}},
		{"target is bool", 0, Options{Targets: []int{2}}},
		{"filter is numeric", 0, Options{Filter: []BoolCond{{Attr: 0}}}},
	}
	for _, tc := range cases {
		if _, err := Count(rel, tc.driver, b, tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestCompact(t *testing.T) {
	rel, b := fourBucketFixture(t)
	c, err := Count(rel, 0, b, Options{
		Bools:         []BoolCond{{Attr: 2, Want: true}},
		Targets:       []int{1},
		Filter:        []BoolCond{{Attr: 2, Want: true}}, // empties bucket 2
		TrackExtremes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	compact, mapping := c.Compact()
	if compact.M != 3 {
		t.Fatalf("compact M = %d, want 3", compact.M)
	}
	if !reflect.DeepEqual(mapping, []int{0, 1, 3}) {
		t.Errorf("mapping = %v, want [0 1 3]", mapping)
	}
	for _, u := range compact.U {
		if u == 0 {
			t.Errorf("compact counts still contain empty buckets: %v", compact.U)
		}
	}
	if compact.N != c.N || compact.Total != c.Total {
		t.Errorf("compact lost totals")
	}
	if compact.V[0][2] != c.V[0][3] || compact.Sum[0][2] != c.Sum[0][3] {
		t.Errorf("compact misaligned V/Sum")
	}
	if compact.MinVal[2] != c.MinVal[3] {
		t.Errorf("compact misaligned extremes")
	}
	// Identity case: no empty buckets returns the same counts.
	full, err := Count(rel, 0, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	same, mapping := full.Compact()
	if same != full {
		t.Errorf("compact of full counts should be identity")
	}
	if mapping != nil {
		t.Errorf("identity mapping = %v, want nil", mapping)
	}
}
