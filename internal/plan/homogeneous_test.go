package plan

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// The homogeneous all-1-D schedule — one group per numeric driver, every
// group with the same objectives, filter and extremes — is the MineAll
// shape. These tests pin it on the one counting kernel: bit-exact
// against the per-tuple reference kernel across objective counts,
// worker counts and storage layouts, against bucketing.Count per
// driver, and through the common-filter zone-map pushdown.

// homSchema has four numeric drivers (X1 with NaN holes, X3 with a
// small integer domain) and eight Boolean objectives.
func homSchema() relation.Schema {
	s := relation.Schema{}
	for i := 0; i < 4; i++ {
		s = append(s, relation.Attribute{Name: fmt.Sprintf("X%d", i), Kind: relation.Numeric})
	}
	for i := 0; i < 8; i++ {
		s = append(s, relation.Attribute{Name: fmt.Sprintf("B%d", i), Kind: relation.Boolean})
	}
	return s
}

// homRow generates row i of the fixture from rng.
func homRow(rng *rand.Rand, i int) ([]float64, []bool) {
	x1 := rng.NormFloat64() * 1000
	if i%13 == 0 {
		x1 = math.NaN() // NaN drivers must count as NaNs, not buckets
	}
	nums := []float64{rng.Float64() * 100, x1, rng.ExpFloat64(), float64(rng.Intn(20))}
	bools := make([]bool, 8)
	for k := range bools {
		bools[k] = rng.Intn(k+2) == 0
	}
	return nums, bools
}

// homRelations writes the same n rows to memory, a v2 file and a
// 4-shard v2 manifest.
func homRelations(t *testing.T, n int) (*relation.MemoryRelation, *relation.DiskRelation, *relation.ShardedRelation) {
	t.Helper()
	schema := homSchema()
	dir := t.TempDir()
	mem := relation.MustNewMemoryRelation(schema)
	dw, err := relation.NewDiskWriterV2(filepath.Join(dir, "hom.opr"), schema, 1000)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "hom.oprs")
	sw, err := relation.NewShardedWriter(manifest, schema,
		relation.ShardedWriterOptions{Shards: 4, TotalRows: n, GroupRows: 700})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		nums, bools := homRow(rng, i)
		mem.MustAppend(nums, bools)
		if err := dw.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
		if err := sw.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := relation.OpenDisk(filepath.Join(dir, "hom.opr"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dr.Close() })
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	return mem, dr, sr
}

// homRequirements schedules one group per numeric driver, each wanting
// the first objs Boolean attributes as objectives, the given targets,
// the given filter, and extremes.
func homRequirements(s relation.Schema, d Defaults, objs int, targets []int, filter []bucketing.BoolCond) *Requirements {
	var conds []bucketing.BoolCond
	for _, b := range s.BooleanIndices()[:objs] {
		conds = append(conds, bucketing.BoolCond{Attr: b, Want: true})
	}
	req := NewRequirements()
	for _, driver := range s.NumericIndices() {
		key, _ := groupKey(driver, d.Buckets, false, filter)
		n := req.group(key, driver, filter)
		n.addBools(conds)
		n.addTargets(targets)
		n.TrackExtremes = true
	}
	return req
}

// runHom runs the schedule with a fresh cache.
func runHom(t *testing.T, rel relation.Relation, d Defaults, req *Requirements) *StatsSet {
	t.Helper()
	set, err := Run(rel, d, NewCache(0), req)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// runHomRef is runHom on the reference kernel.
func runHomRef(t *testing.T, rel relation.Relation, d Defaults, req *Requirements) *StatsSet {
	t.Helper()
	set, err := runRef(rel, d, NewCache(0), req)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestHomogeneousKernelMatchesReference is the differential for the
// MineAll-shaped schedule: at 0, 1, 3 and 8 objectives, the vectorized
// kernel must match the serial reference kernel bit for bit — serial
// over memory and v2, and with 2, 4 and 8 workers over v2 and over four
// shards, where the chunk plan snaps to block groups and shard
// boundaries.
func TestHomogeneousKernelMatchesReference(t *testing.T) {
	mem, v2, shards := homRelations(t, 9000)
	layouts := []struct {
		name string
		rel  relation.Relation
		pes  []int
	}{
		{"memory", mem, []int{0}},
		{"v2", v2, []int{0, 2, 4, 8}},
		{"shards4", shards, []int{0, 2, 4, 8}},
	}
	for _, objs := range []int{0, 1, 3, 8} {
		base := Defaults{Buckets: 60, GridSide: 8, SampleFactor: 40, Seed: 3}
		want := runHomRef(t, mem, base, homRequirements(mem.Schema(), base, objs, nil, nil))
		if len(want.Groups) != 4 {
			t.Fatalf("objs=%d: reference produced %d groups, want 4", objs, len(want.Groups))
		}
		nans := 0
		for _, g := range want.Groups {
			nans += g.NaNs
			if len(g.V) != objs || g.MinVal == nil {
				t.Fatalf("objs=%d: reference group has %d objectives, extremes %v", objs, len(g.V), g.MinVal != nil)
			}
		}
		if nans == 0 {
			t.Fatalf("objs=%d: fixture has no NaN drivers; the NaN path is untested", objs)
		}
		for _, l := range layouts {
			for _, pes := range l.pes {
				t.Run(fmt.Sprintf("objs%d/%s/pes%d", objs, l.name, pes), func(t *testing.T) {
					d := base
					d.PEs = pes
					got := runHom(t, l.rel, d, homRequirements(l.rel.Schema(), d, objs, nil, nil))
					compareStatsSets(t, want, got)
				})
			}
		}
	}
}

// TestHomogeneousMatchesCountPerDriver pins every group of the fused
// schedule — objectives, a target sum, extremes, with and without a
// filter — to what the single-attribute bucketing.Count returns for
// that driver over the same boundaries, float sums included.
func TestHomogeneousMatchesCountPerDriver(t *testing.T) {
	mem, _, _ := homRelations(t, 4000)
	s := mem.Schema()
	d := Defaults{Buckets: 25, GridSide: 8, SampleFactor: 40, Seed: 9}
	objectives := []bucketing.BoolCond{{Attr: 4, Want: true}, {Attr: 5, Want: true}}
	for _, filter := range [][]bucketing.BoolCond{nil, {{Attr: 7, Want: false}}} {
		// X3 doubles as the target sum of every group.
		req := homRequirements(s, d, 2, []int{3}, filter)
		set := runHom(t, mem, d, req)
		opts := bucketing.Options{Bools: objectives, Targets: []int{3}, Filter: filter, TrackExtremes: true}
		for _, k := range req.GroupOrder {
			g := set.Groups[k]
			b, err := set.boundsOf(BoundKey{Attr: k.Driver, M: k.M})
			if err != nil {
				t.Fatal(err)
			}
			c, err := bucketing.Count(mem, k.Driver, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if g.M != c.M || g.N != c.N || g.Total != c.Total || g.NaNs != c.NaNs {
				t.Errorf("filter=%v driver %d: scalars {M:%d N:%d Total:%d NaNs:%d}, Count {M:%d N:%d Total:%d NaNs:%d}",
					filter, k.Driver, g.M, g.N, g.Total, g.NaNs, c.M, c.N, c.Total, c.NaNs)
			}
			if !reflect.DeepEqual(g.U, c.U) || !reflect.DeepEqual(g.MinVal, c.MinVal) || !reflect.DeepEqual(g.MaxVal, c.MaxVal) {
				t.Errorf("filter=%v driver %d: bucket counts or extremes differ from Count", filter, k.Driver)
			}
			for i, bc := range objectives {
				if !reflect.DeepEqual(g.V[bc], c.V[i]) {
					t.Errorf("filter=%v driver %d: objective %v counts differ from Count", filter, k.Driver, bc)
				}
			}
			if !reflect.DeepEqual(g.Sum[3], c.Sum[0]) {
				t.Errorf("filter=%v driver %d: target sums differ from Count (must be bit-identical)", filter, k.Driver)
			}
		}
	}
}

// TestHomogeneousOneCountingScan pins the two-pass contract for the
// MineAll shape: one point-read sampling pass (one read per sample:
// two drivers at the 1-D and the grid resolution), then ONE counting
// pass that streams every row once, no matter how many drivers and
// objectives — one scan at PEs 1, chunk scans tiling the relation at
// PEs 4.
func TestHomogeneousOneCountingScan(t *testing.T) {
	mem, _, _ := homRelations(t, 3000)
	n := mem.NumTuples()
	for _, pes := range []int{1, 4} {
		counting := &relation.CountingRelation{R: mem}
		d := Defaults{Buckets: 30, GridSide: 8, SampleFactor: 40, Seed: 1, PEs: pes}
		set := runHom(t, counting, d, homRequirements(mem.Schema(), d, 8, nil, nil))
		if counting.PointReads != 4 || counting.Scans != pes || !counting.Tiles(0, 0, n) {
			t.Errorf("pes=%d: schedule issued %d point reads and scans %v, want 4 point reads and %d scans tiling [0,%d)",
				pes, counting.PointReads, counting.Ranges, pes, n)
		}
		scans, rows := counting.Scans, counting.Rows
		// Boundaries cached, counts not: the counting pass alone.
		cache := NewCache(0)
		for k, b := range set.Bounds {
			cache.PutBounds(k, b, n)
		}
		if _, err := Run(counting, d, cache, homRequirements(mem.Schema(), d, 8, nil, nil)); err != nil {
			t.Fatal(err)
		}
		if got := counting.Scans - scans; got != pes || counting.PointReads != 4 || !counting.Tiles(scans, 0, n) {
			t.Errorf("pes=%d: counting pass issued %d scans %v, want %d tiling [0,%d) and no point read",
				pes, got, counting.Ranges[scans:], pes, n)
		}
		if got := counting.Rows - rows; got != int64(n) {
			t.Errorf("pes=%d: counting pass streamed %d rows, want %d", pes, got, n)
		}
	}
}

// filteredFixture writes n rows whose filter column F is true only in
// rows [lo,hi) to memory, v2 and v3 — the same row order everywhere, so
// the v3 zone maps can refute F=true for every block group outside the
// band.
func filteredFixture(t *testing.T, n, gr, lo, hi int) (*relation.MemoryRelation, *relation.DiskRelation, *relation.DiskRelation) {
	t.Helper()
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
		{Name: "D", Kind: relation.Boolean},
		{Name: "F", Kind: relation.Boolean},
	}
	dir := t.TempDir()
	mem := relation.MustNewMemoryRelation(schema)
	w2, err := relation.NewDiskWriterV2(filepath.Join(dir, "f.v2.opr"), schema, gr)
	if err != nil {
		t.Fatal(err)
	}
	w3, err := relation.NewDiskWriterV3(filepath.Join(dir, "f.v3.opr"), schema, gr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		x := rng.NormFloat64() * 100
		if i%251 == 0 {
			x = math.NaN()
		}
		nums := []float64{x, rng.Float64() * 10}
		bools := []bool{rng.Intn(2) == 0, rng.Intn(3) == 0, i >= lo && i < hi}
		mem.MustAppend(nums, bools)
		if err := w2.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
		if err := w3.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
	}
	open := func(w *relation.DiskWriter, name string) *relation.DiskRelation {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		dr, err := relation.OpenDisk(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		return dr
	}
	return mem, open(w2, "f.v2.opr"), open(w3, "f.v3.opr")
}

// TestHomogeneousFilterPushdownOverV3 pins the common-filter pushdown on
// the MineAll shape: with every group filtered on F=true, serial and
// 2/4/8-worker scans of a v3 file must match the serial reference
// kernel over memory bit for bit — Total included, so skipped rows are
// still accounted — while reading fewer physical bytes than the same
// schedule over v2 and than the unfiltered schedule over v3.
func TestHomogeneousFilterPushdownOverV3(t *testing.T) {
	const n, gr = 20000, 1000
	mem, v2, v3 := filteredFixture(t, n, gr, 4000, 8000)
	filter := []bucketing.BoolCond{{Attr: 4, Want: true}}
	base := Defaults{Buckets: 50, GridSide: 8, SampleFactor: 40, Seed: 2}
	want := runHomRef(t, mem, base, homRequirements(mem.Schema(), base, 2, nil, filter))
	for _, g := range want.Groups {
		if g.Total != n || g.N == 0 || g.N >= n/2 {
			t.Fatalf("degenerate fixture: N=%d of Total=%d", g.N, g.Total)
		}
	}
	read := func(rel *relation.DiskRelation, d Defaults, filter []bucketing.BoolCond) (*StatsSet, int64) {
		before := rel.BytesRead()
		set := runHom(t, rel, d, homRequirements(rel.Schema(), d, 2, nil, filter))
		return set, rel.BytesRead() - before
	}
	set2, bytes2 := read(v2, base, filter)
	compareStatsSets(t, want, set2)
	_, full3 := read(v3, base, nil)
	for _, pes := range []int{0, 2, 4, 8} {
		d := base
		d.PEs = pes
		set3, bytes3 := read(v3, d, filter)
		compareStatsSets(t, want, set3)
		if bytes3 >= bytes2 {
			t.Errorf("pes=%d: v3 pushdown read %d bytes, v2 read %d; want strictly fewer", pes, bytes3, bytes2)
		}
		if bytes3 >= full3 {
			t.Errorf("pes=%d: filtered v3 read %d bytes, unfiltered %d; zone maps pruned nothing", pes, bytes3, full3)
		}
	}
}

// TestHomogeneousDynamicPruned pins the work-stealing chunk scheduler on
// the layout it was built for: a v3 file clustered by the filter
// column, where about half the block groups are zone-refuted and cost
// ~0 — maximal chunk-cost skew. Every statistic must match the serial
// reference kernel bit for bit at every worker count, whichever worker
// claims which chunk. Runs under -race in CI.
func TestHomogeneousDynamicPruned(t *testing.T) {
	schema := relation.Schema{
		{Name: "V", Kind: relation.Numeric},
		{Name: "W", Kind: relation.Numeric},
		{Name: "Hit", Kind: relation.Boolean},
		{Name: "Member", Kind: relation.Boolean},
	}
	path := filepath.Join(t.TempDir(), "steal.opr")
	dw, err := relation.NewDiskWriterV3(path, schema, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster by the filter column: all non-member rows land in leading
	// groups whose zone maps (true count 0) refute Member=true outright.
	if err := dw.ClusterBy(3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 8000; i++ {
		v := rng.NormFloat64() * 100
		if i%251 == 0 {
			v = math.NaN()
		}
		if err := dw.Append([]float64{v, rng.Float64()}, []bool{rng.Intn(3) == 0, rng.Intn(2) == 0}); err != nil {
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
	defer dr.Close()

	filter := []bucketing.BoolCond{{Attr: 3, Want: true}}
	base := Defaults{Buckets: 6, GridSide: 8, SampleFactor: 40, Seed: 4}
	want := runHomRef(t, dr, base, homRequirements(schema, base, 1, nil, filter))
	for _, g := range want.Groups {
		if g.N == 0 || g.N == g.Total {
			t.Fatalf("degenerate fixture: N=%d of Total=%d", g.N, g.Total)
		}
	}
	for _, pes := range []int{2, 4, 8} {
		d := base
		d.PEs = pes
		got := runHom(t, dr, d, homRequirements(schema, d, 1, nil, filter))
		compareStatsSets(t, want, got)
	}
}
