package plan

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// shapeSchema has two numeric drivers with NaN holes on different rows
// (X also repeats −0 and +0), a target and twelve Booleans, enough for
// a group of four lanes.
func shapeSchema() relation.Schema {
	s := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
	}
	for i := 0; i < 12; i++ {
		s = append(s, relation.Attribute{Name: fmt.Sprintf("B%d", i), Kind: relation.Boolean})
	}
	return s
}

// shapeRelations writes the same n rows to memory, a v2 file, a v3
// file and a relation of two v2 shards grown by two v3 shards.
func shapeRelations(t *testing.T, n int) map[string]relation.Relation {
	t.Helper()
	schema := shapeSchema()
	dir := t.TempDir()
	mem := relation.MustNewMemoryRelation(schema)
	tail := relation.MustNewMemoryRelation(schema)
	v2, err := relation.NewDiskWriterV2(filepath.Join(dir, "shape.v2.opr"), schema, 1000)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := relation.NewDiskWriterV3(filepath.Join(dir, "shape.v3.opr"), schema, 1000)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "shape.oprs")
	sw, err := relation.NewShardedWriter(manifest, schema,
		relation.ShardedWriterOptions{Shards: 2, TotalRows: n / 2, GroupRows: 700})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < n; i++ {
		x, y := rng.NormFloat64()*50, rng.ExpFloat64()*10
		switch i % 13 {
		case 0:
			x = math.NaN()
		case 3:
			x = math.Copysign(0, -1) // ties of −0 and +0 in one bucket
		case 4:
			x = 0
		}
		if i%17 == 5 {
			y = math.NaN()
		}
		nums := []float64{x, y, float64(rng.Intn(1000)) + rng.Float64()}
		bools := make([]bool, 12)
		for k := range bools {
			bools[k] = rng.Intn(k%4+2) == 0
		}
		mem.MustAppend(nums, bools)
		for _, w := range []*relation.DiskWriter{v2, v3} {
			if err := w.Append(nums, bools); err != nil {
				t.Fatal(err)
			}
		}
		if i < n/2 {
			err = sw.Append(nums, bools)
		} else {
			err = tail.Append(nums, bools)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := relation.AppendToSharded(manifest, tail,
		relation.AppendOptions{RowsPerShard: n / 4, Format: relation.DiskFormatV3}); err != nil {
		t.Fatal(err)
	}
	rels := map[string]relation.Relation{"memory": mem}
	for name, w := range map[string]*relation.DiskWriter{"v2": v2, "v3": v3} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		dr, err := relation.OpenDisk(filepath.Join(dir, "shape."+name+".opr"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		rels[name] = dr
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	rels["mixed-shards"] = sr
	return rels
}

// shapeRequirements schedules, for each condition count of 0, 1, 2, 3,
// 4, 9 and 10, an unfiltered and a filtered group over one boundary
// set, so the two share one locate pass. One group tracks extremes and
// the other does not, which sends the groups without conditions through
// count0x and count0; a group with conditions folds extremes either
// way and publishes them only when it tracks them. 4 conditions fill
// a partial last lane, and 10 run through a second block. Some groups of either kind carry a target, and two
// pairs, one per axis order, carry a true and a false objective over
// drivers with NaN holes on different rows.
func shapeRequirements(s relation.Schema, d Defaults) *Requirements {
	x, y, tgt := s.NumericIndices()[0], s.NumericIndices()[1], s.NumericIndices()[2]
	bools := s.BooleanIndices()
	req := NewRequirements()
	for k, c := range []int{0, 1, 2, 3, 4, 9, 10} {
		driver := x
		if k%2 == 1 {
			driver = y
		}
		var conds []bucketing.BoolCond
		for j := 0; j < c; j++ {
			conds = append(conds, bucketing.BoolCond{Attr: bools[(j+k)%len(bools)], Want: (j+k)%3 != 1})
		}
		filter := []bucketing.BoolCond{{Attr: bools[(k+5)%len(bools)], Want: k%2 == 0}}
		for f, filter := range [][]bucketing.BoolCond{nil, filter} {
			key, _ := groupKey(driver, 20+k, false, filter)
			n := req.group(key, driver, filter)
			n.addBools(conds)
			n.TrackExtremes = (k+f)%2 == 0
			if (k+f)%3 == 1 {
				n.addTargets([]int{tgt})
			}
		}
	}
	for _, p := range []struct {
		a, b int
		obj  bucketing.BoolCond
	}{{x, y, bucketing.BoolCond{Attr: bools[0], Want: true}}, {y, x, bucketing.BoolCond{Attr: bools[7], Want: false}}} {
		key := PairKey{A: p.a, B: p.b, Side: d.GridSide, ObjAttr: p.obj.Attr, ObjWant: p.obj.Want}
		req.Pairs[key] = &PairNeed{Key: key, A: p.a, B: p.b, Side: d.GridSide, Obj: p.obj}
		req.PairOrder = append(req.PairOrder, key)
	}
	return req
}

// sameFloats reports whether a and b hold the same values bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestKernelShapesMatchReference is the differential for every
// per-shape row loop of the vectorized kernel: over memory, v2, v3 and
// mixed-format shards, serial and at 2 and 4 workers, the vectorized
// kernel must match the reference kernel, extremes and float target
// sums bit for bit, and both must match plain per-row counts.
func TestKernelShapesMatchReference(t *testing.T) {
	rels := shapeRelations(t, 9000)
	mem := rels["memory"].(*relation.MemoryRelation)
	for _, name := range []string{"memory", "v2", "v3", "mixed-shards"} {
		for _, pes := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/pes%d", name, pes), func(t *testing.T) {
				rel := rels[name]
				d := Defaults{GridSide: 10, SampleFactor: 40, Seed: 13, PEs: pes}
				req := shapeRequirements(rel.Schema(), d)
				want, err := runRef(rel, d, NewCache(0), req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(rel, d, NewCache(0), req)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Groups) != 14 || len(got.Pairs) != 2 {
					t.Fatalf("%d groups, %d pairs; want 14 and 2", len(got.Groups), len(got.Pairs))
				}
				compareStatsSets(t, want, got)
				compareCounts(t, bruteForce(t, mem, got, req), got)
				for k, w := range want.Groups {
					g := got.Groups[k]
					if !sameFloats(w.MinVal, g.MinVal) || !sameFloats(w.MaxVal, g.MaxVal) {
						t.Errorf("group %+v: extremes differ in their bits", k)
					}
					if tracked := req.Groups[k].TrackExtremes; (g.MinVal != nil) != tracked {
						t.Errorf("group %+v: extremes published %v, tracked %v", k, g.MinVal != nil, tracked)
					}
					for tg, ws := range w.Sum {
						if !sameFloats(ws, g.Sum[tg]) {
							t.Errorf("group %+v: target %d sums differ in their bits", k, tg)
						}
					}
				}
				for k, w := range want.Pairs {
					g := got.Pairs[k]
					if !sameFloats(w.MinA, g.MinA) || !sameFloats(w.MaxA, g.MaxA) ||
						!sameFloats(w.MinB, g.MinB) || !sameFloats(w.MaxB, g.MaxB) {
						t.Errorf("pair %+v: axis extremes differ in their bits", k)
					}
				}
			})
		}
	}
}
