package plan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"optrule/internal/relation"
)

// kernelTestRelation builds a relation exercising every kernel path:
// three numeric columns (one with NaN holes), three Boolean columns,
// and enough rows that buckets fill unevenly.
func kernelTestRelation(t *testing.T, n int) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
		{Name: "F", Kind: relation.Boolean},
		{Name: "G", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		x := rng.NormFloat64() * 100
		if i%97 == 0 {
			x = math.NaN() // NaN drivers must count as NaNs, not buckets
		}
		rel.MustAppend(
			[]float64{x, rng.Float64() * 50, rng.NormFloat64() * 10},
			[]bool{rng.Intn(3) == 0, rng.Intn(2) == 0, rng.Intn(4) != 0},
		)
	}
	return rel
}

// kernelBatchRequirements resolves a deliberately heterogeneous batch
// — unfiltered rules with extremes, a filtered conjunctive query, an
// average-operator target sum, and a 2-D pair — whose mixed tally
// shapes exercise every part of the counting kernel: shared locate
// passes, several filters, target sums and a pair grid.
func kernelBatchRequirements(t *testing.T, rel relation.Relation, d Defaults, withTargets bool) *Requirements {
	t.Helper()
	queries := []Query{
		{Op: OpRules},
		{Op: OpConjunctive, Numeric: "X",
			Objectives: []Condition{{Attr: "C", Value: true}},
			Conditions: []Condition{{Attr: "F", Value: true}}},
		{Op: OpRules2D, Numeric: "X", NumericB: "Y", Objective: "C", ObjectiveValue: true},
	}
	if withTargets {
		queries = append(queries, Query{Op: OpAverage, Numeric: "Y", Target: "T", MinSupport: 0.1})
	}
	req := NewRequirements()
	for _, q := range queries {
		r, err := Resolve(rel, d, q)
		if err != nil {
			t.Fatalf("resolve %+v: %v", q, err)
		}
		req.Add(r)
	}
	return req
}

// wideBatchRequirements resolves a batch over wideSchema whose groups
// tally all nine Booleans (three full lanes), a filtered group with a
// false objective, and a pair grid with a false objective.
func wideBatchRequirements(t *testing.T, rel relation.Relation, d Defaults) *Requirements {
	t.Helper()
	req := NewRequirements()
	for _, q := range []Query{
		{Op: OpRules},
		{Op: OpRules, Numeric: "X", Objective: "B3", ObjectiveValue: false,
			Conditions: []Condition{{Attr: "B1", Value: true}}},
		{Op: OpRules2D, Numeric: "X", NumericB: "Y", Objective: "B4", ObjectiveValue: false},
	} {
		r, err := Resolve(rel, d, q)
		if err != nil {
			t.Fatalf("resolve %+v: %v", q, err)
		}
		req.Add(r)
	}
	for _, g := range req.Groups {
		if len(g.Bools) == 9 {
			return req
		}
	}
	t.Fatal("no group tallies nine Booleans")
	return nil
}

// compareStatsSets requires bit-identical statistics: every 1-D group
// field (including float target sums) and every 2-D grid cell and
// axis extreme must match exactly.
func compareStatsSets(t *testing.T, want, got *StatsSet) {
	t.Helper()
	if len(want.Groups) != len(got.Groups) || len(want.Pairs) != len(got.Pairs) {
		t.Fatalf("shape differs: %d/%d groups, %d/%d pairs",
			len(want.Groups), len(got.Groups), len(want.Pairs), len(got.Pairs))
	}
	for k, w := range want.Groups {
		g, ok := got.Groups[k]
		if !ok {
			t.Fatalf("group %+v missing", k)
		}
		if w.M != g.M || w.N != g.N || w.Total != g.Total || w.NaNs != g.NaNs {
			t.Errorf("group %+v scalars differ: want {M:%d N:%d Total:%d NaNs:%d}, got {M:%d N:%d Total:%d NaNs:%d}",
				k, w.M, w.N, w.Total, w.NaNs, g.M, g.N, g.Total, g.NaNs)
		}
		if !reflect.DeepEqual(w.U, g.U) {
			t.Errorf("group %+v bucket counts differ", k)
		}
		if !reflect.DeepEqual(w.MinVal, g.MinVal) || !reflect.DeepEqual(w.MaxVal, g.MaxVal) {
			t.Errorf("group %+v extremes differ", k)
		}
		if !reflect.DeepEqual(w.V, g.V) {
			t.Errorf("group %+v objective counts differ", k)
		}
		if !reflect.DeepEqual(w.Sum, g.Sum) {
			t.Errorf("group %+v target sums differ (must be bit-identical)", k)
		}
	}
	for k, w := range want.Pairs {
		g, ok := got.Pairs[k]
		if !ok {
			t.Fatalf("pair %+v missing", k)
		}
		if w.N != g.N || w.Hits != g.Hits {
			t.Errorf("pair %+v scalars differ: want {N:%d Hits:%d}, got {N:%d Hits:%d}",
				k, w.N, w.Hits, g.N, g.Hits)
		}
		if !reflect.DeepEqual(w.Grid.U, g.Grid.U) || !reflect.DeepEqual(w.Grid.V, g.Grid.V) {
			t.Errorf("pair %+v grid cells differ", k)
		}
		if !reflect.DeepEqual(w.MinA, g.MinA) || !reflect.DeepEqual(w.MaxA, g.MaxA) ||
			!reflect.DeepEqual(w.MinB, g.MinB) || !reflect.DeepEqual(w.MaxB, g.MaxB) {
			t.Errorf("pair %+v axis extremes differ", k)
		}
	}
}

// TestVectorizedKernelMatchesReference is the kernel differential: the
// batch-vectorized general counting kernel must produce statistics
// bit-identical to the reference per-tuple kernel — serial and
// segmented in parallel, with float target sums and without them.
func TestVectorizedKernelMatchesReference(t *testing.T) {
	rel := kernelTestRelation(t, 20000)
	wide := wideRelations(t, 20000)["memory"]
	for _, tc := range []struct {
		name        string
		pes         int
		withTargets bool
		wide        bool
	}{
		{"serial_with_target_sums", 1, true, false},
		{"parallel_4pe", 4, false, false},
		{"parallel_with_target_sums", 4, true, false},
		{"wide_booleans", 1, false, true},
		{"wide_booleans_4pe", 4, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ref bool) *StatsSet {
				d := Defaults{Buckets: 137, GridSide: 23, SampleFactor: 40,
					Seed: 5, PEs: tc.pes}
				var r relation.Relation = rel
				req := kernelBatchRequirements(t, rel, d, tc.withTargets)
				if tc.wide {
					r, req = wide, wideBatchRequirements(t, wide, d)
				}
				exec := Run
				if ref {
					exec = runRef
				}
				set, err := exec(r, d, NewCache(0), req)
				if err != nil {
					t.Fatal(err)
				}
				return set
			}
			want := run(true)
			got := run(false)
			if len(want.Groups) == 0 || len(want.Pairs) == 0 {
				t.Fatalf("reference run produced %d groups, %d pairs; differential test is vacuous",
					len(want.Groups), len(want.Pairs))
			}
			compareStatsSets(t, want, got)
		})
	}
}

// TestGeneralKernelPushdownOverV3 pins the common-filter zone-map
// pushdown: a batch whose groups all share one filter, run over a v3
// relation where the filter column is clustered, must read strictly
// fewer physical bytes than the same batch over v2 — while producing
// identical statistics.
func TestGeneralKernelPushdownOverV3(t *testing.T) {
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "F", Kind: relation.Boolean},
		{Name: "C", Kind: relation.Boolean},
	}
	const n, gr = 20000, 1000
	write := func(t *testing.T, path string, format int) *relation.DiskRelation {
		var dw *relation.DiskWriter
		var err error
		if format == relation.DiskFormatV3 {
			dw, err = relation.NewDiskWriterV3(path, schema, gr)
		} else {
			dw, err = relation.NewDiskWriterV2(path, schema, gr)
		}
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < n; i++ {
			// F true only in rows [4000, 8000): 16 of 20 block groups are
			// provably filter-free and prunable.
			if err := dw.Append(
				[]float64{rng.NormFloat64() * 100, rng.Float64() * 10},
				[]bool{i >= 4000 && i < 8000, rng.Intn(2) == 0},
			); err != nil {
				t.Fatal(err)
			}
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		dr, err := relation.OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		return dr
	}
	dir := t.TempDir()
	v2 := write(t, dir+"/rel.v2.opr", relation.DiskFormatV2)
	v3 := write(t, dir+"/rel.v3.opr", relation.DiskFormatV3)
	// Two resolutions of one filtered attribute: the same-driver groups
	// differ only in M, so the kernel runs two locate passes over one
	// column, and their identical filter qualifies for the common-filter
	// pushdown.
	queries := []Query{
		{Op: OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true,
			Conditions: []Condition{{Attr: "F", Value: true}}},
		{Op: OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true,
			Conditions: []Condition{{Attr: "F", Value: true}}, Buckets: 50},
	}
	run := func(rel *relation.DiskRelation) (*StatsSet, int64) {
		d := Defaults{Buckets: 100, GridSide: 16, SampleFactor: 40, Seed: 7}
		req := NewRequirements()
		for _, q := range queries {
			r, err := Resolve(rel, d, q)
			if err != nil {
				t.Fatal(err)
			}
			req.Add(r)
		}
		before := rel.BytesRead()
		set, err := Run(rel, d, NewCache(0), req)
		if err != nil {
			t.Fatal(err)
		}
		return set, rel.BytesRead() - before
	}
	set2, bytes2 := run(v2)
	set3, bytes3 := run(v3)
	compareStatsSets(t, set2, set3)
	if bytes3 >= bytes2 {
		t.Errorf("v3 pushdown read %d bytes, v2 read %d; want strictly fewer", bytes3, bytes2)
	}
}
