package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// BenchmarkCountBatch times the counting scan alone — boundaries are
// built before the clock starts — in ns per counted row, on two
// schedule shapes over an in-memory relation:
//
//   - fig9: 8 numeric drivers × 8 Boolean objectives at 1000 buckets,
//     the paper's Fig. 9 MineAll shape;
//   - bank: 6 drivers × 3 Booleans, 2 drivers with none (average-style
//     bucket counts) and one 64×64 pair grid;
//   - filtered: 4 drivers × 3 Booleans, each group behind a
//     two-condition filter on random Booleans (the conditioned rules'
//     shape), so the masked effective-index arm runs.
//
// PEs is left at 0, so -cpu picks the worker count.
func BenchmarkCountBatch(b *testing.B) {
	const rows = 1 << 18
	for _, shape := range []struct {
		name            string
		nums, bools     int
		withBools, bare int
		filter          int // conditions of every group's filter
		pair            bool
	}{
		{name: "fig9", nums: 8, bools: 8, withBools: 8},
		{name: "bank", nums: 8, bools: 3, withBools: 6, bare: 2, pair: true},
		{name: "filtered", nums: 4, bools: 3, withBools: 4, filter: 2},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var schema relation.Schema
			for i := 0; i < shape.nums; i++ {
				schema = append(schema, relation.Attribute{Name: fmt.Sprintf("X%d", i), Kind: relation.Numeric})
			}
			for i := 0; i < shape.bools; i++ {
				schema = append(schema, relation.Attribute{Name: fmt.Sprintf("B%d", i), Kind: relation.Boolean})
			}
			rel := relation.MustNewMemoryRelation(schema)
			rng := rand.New(rand.NewSource(1))
			nums := make([]float64, shape.nums)
			bools := make([]bool, shape.bools)
			for r := 0; r < rows; r++ {
				for k := range nums {
					nums[k] = rng.NormFloat64() * float64(k+1)
				}
				for k := range bools {
					bools[k] = rng.Intn(k+2) == 0
				}
				rel.MustAppend(nums, bools)
			}
			d := Defaults{Buckets: 1000, GridSide: 64, SampleFactor: 40, Seed: 1}
			var conds []bucketing.BoolCond
			for _, a := range schema.BooleanIndices() {
				conds = append(conds, bucketing.BoolCond{Attr: a, Want: true})
			}
			var filter []bucketing.BoolCond
			for k, bc := range conds[:shape.filter] {
				filter = append(filter, bucketing.BoolCond{Attr: bc.Attr, Want: k%2 == 0})
			}
			req := NewRequirements()
			for i, driver := range schema.NumericIndices()[:shape.withBools+shape.bare] {
				key, uniq := groupKey(driver, d.Buckets, false, filter)
				n := req.group(key, driver, uniq)
				if i < shape.withBools {
					n.addBools(conds)
				}
				n.TrackExtremes = true
			}
			if shape.pair {
				a, c := schema.NumericIndices()[0], schema.NumericIndices()[1]
				key := PairKey{A: a, B: c, Side: d.GridSide, ObjAttr: conds[0].Attr, ObjWant: true}
				req.Pairs[key] = &PairNeed{Key: key, A: a, B: c, Side: d.GridSide, Obj: conds[0]}
				req.PairOrder = append(req.PairOrder, key)
			}
			cache := NewCache(0)
			set, err := Run(rel, d, cache, req) // builds and caches the boundaries
			if err != nil {
				b.Fatal(err)
			}
			var groups []*GroupNeed
			for _, gk := range req.GroupOrder {
				groups = append(groups, req.Groups[gk])
			}
			var pairs []*PairNeed
			for _, pk := range req.PairOrder {
				pairs = append(pairs, req.Pairs[pk])
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := countRange(ctx, rel, d, set, groups, pairs, 0, rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
