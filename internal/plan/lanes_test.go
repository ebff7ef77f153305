package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/region"
	"optrule/internal/relation"
)

// wideSchema has two numeric drivers (X with NaN holes) and nine
// Booleans, enough for three full lanes.
func wideSchema() relation.Schema {
	s := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
	}
	for i := 0; i < 9; i++ {
		s = append(s, relation.Attribute{Name: fmt.Sprintf("B%d", i), Kind: relation.Boolean})
	}
	return s
}

// wideRelations writes the same n rows to memory, a v2 file and a v3
// file with 1000-row block groups.
func wideRelations(t *testing.T, n int) map[string]relation.Relation {
	t.Helper()
	schema := wideSchema()
	dir := t.TempDir()
	mem := relation.MustNewMemoryRelation(schema)
	v2, err := relation.NewDiskWriterV2(filepath.Join(dir, "wide.v2.opr"), schema, 1000)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := relation.NewDiskWriterV3(filepath.Join(dir, "wide.v3.opr"), schema, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < n; i++ {
		x := rng.NormFloat64() * 100
		if i%29 == 0 {
			x = math.NaN()
		}
		nums := []float64{x, rng.ExpFloat64()}
		bools := make([]bool, 9)
		for k := range bools {
			bools[k] = rng.Intn(k+2) == 0
		}
		mem.MustAppend(nums, bools)
		if err := v2.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
		if err := v3.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
	}
	rels := map[string]relation.Relation{"memory": mem}
	for name, w := range map[string]*relation.DiskWriter{"v2": v2, "v3": v3} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		dr, err := relation.OpenDisk(filepath.Join(dir, "wide."+name+".opr"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		rels[name] = dr
	}
	return rels
}

// wideRequirements schedules groups with 0, 1, 2, 3, 4, 6, 7, 8 and 9
// conditions — full and partial last lanes, mixed wants — some of them
// filtered, two sharing one condition list, and two pair grids, one
// with a false objective.
func wideRequirements(s relation.Schema, d Defaults) *Requirements {
	x, y := s.NumericIndices()[0], s.NumericIndices()[1]
	bools := s.BooleanIndices()
	req := NewRequirements()
	for k, c := range []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 7, 0} {
		driver := x
		if k%4 == 3 {
			driver = y
		}
		var filter []bucketing.BoolCond
		if k%3 == 2 || k == 10 {
			filter = []bucketing.BoolCond{{Attr: bools[k%9], Want: k%2 == 0}}
		}
		var conds []bucketing.BoolCond
		for j := 0; j < c; j++ {
			// The condition list of group 9 repeats group 6's, so the two
			// share their code passes.
			kk := k
			if k == 9 {
				kk = 6
			}
			conds = append(conds, bucketing.BoolCond{Attr: bools[(j*4+kk)%9], Want: (j+kk)%3 != 0})
		}
		key, _ := groupKey(driver, 30+k, false, filter)
		n := req.group(key, driver, filter)
		n.addBools(conds)
		n.TrackExtremes = k%2 == 0
	}
	for _, obj := range []bucketing.BoolCond{{Attr: bools[4], Want: false}, {Attr: bools[0], Want: true}} {
		key := PairKey{A: x, B: y, Side: d.GridSide, ObjAttr: obj.Attr, ObjWant: obj.Want}
		req.Pairs[key] = &PairNeed{Key: key, A: x, B: y, Side: d.GridSide, Obj: obj}
		req.PairOrder = append(req.PairOrder, key)
	}
	return req
}

// bruteForce counts every statistic of req row by row with
// Boundaries.Locate over mem, using the boundaries in set.
func bruteForce(t *testing.T, mem *relation.MemoryRelation, set *StatsSet, req *Requirements) *StatsSet {
	t.Helper()
	n := mem.NumTuples()
	num := func(a int) []float64 {
		c, err := mem.NumericColumn(a)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	boo := func(a int) []bool {
		c, err := mem.BoolColumn(a)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	locate := func(b bucketing.Boundaries, x float64) int {
		if math.IsNaN(x) {
			return -1
		}
		return b.Locate(x)
	}
	want := newStatsSet()
	for _, gk := range req.GroupOrder {
		g := req.Groups[gk]
		b := set.Bounds[g.boundKey()]
		m := b.NumBuckets()
		s := &Stats1D{M: m, Total: n, U: make([]int, m), V: map[bucketing.BoolCond][]int{}}
		for _, bc := range g.Bools {
			s.V[bc] = make([]int, m)
		}
		driver := num(g.Driver)
	rows:
		for r := 0; r < n; r++ {
			for _, f := range g.Filter {
				if boo(f.Attr)[r] != f.Want {
					continue rows
				}
			}
			i := locate(b, driver[r])
			if i < 0 {
				s.NaNs++
				continue
			}
			s.U[i]++
			s.N++
			for _, bc := range g.Bools {
				if boo(bc.Attr)[r] == bc.Want {
					s.V[bc][i]++
				}
			}
		}
		want.Groups[gk] = s
	}
	for _, pk := range req.PairOrder {
		p := req.Pairs[pk]
		ba, bb := set.Bounds[BoundKey{Attr: p.A, M: p.Side}], set.Bounds[BoundKey{Attr: p.B, M: p.Side}]
		grid, err := region.NewGrid(ba.NumBuckets(), bb.NumBuckets())
		if err != nil {
			t.Fatal(err)
		}
		s := &Stats2D{Grid: grid}
		a, c, obj := num(p.A), num(p.B), boo(p.Obj.Attr)
		for r := 0; r < n; r++ {
			i, j := locate(ba, a[r]), locate(bb, c[r])
			if i < 0 || j < 0 {
				continue
			}
			grid.U[i][j]++
			s.N++
			if obj[r] == p.Obj.Want {
				grid.V[i][j]++
				s.Hits++
			}
		}
		want.Pairs[pk] = s
	}
	return want
}

// compareCounts requires got's integer counts to equal want's: every
// group's Total, N, NaNs, U and V, every grid's cells, N and Hits.
func compareCounts(t *testing.T, want, got *StatsSet) {
	t.Helper()
	for k, w := range want.Groups {
		g, ok := got.Groups[k]
		if !ok {
			t.Fatalf("group %+v missing", k)
		}
		if w.Total != g.Total || w.N != g.N || w.NaNs != g.NaNs {
			t.Errorf("group %+v: {Total:%d N:%d NaNs:%d}, want {Total:%d N:%d NaNs:%d}",
				k, g.Total, g.N, g.NaNs, w.Total, w.N, w.NaNs)
		}
		if !reflect.DeepEqual(w.U, g.U) {
			t.Errorf("group %+v: bucket counts differ", k)
		}
		if !reflect.DeepEqual(w.V, g.V) {
			t.Errorf("group %+v: condition counts differ", k)
		}
	}
	for k, w := range want.Pairs {
		g, ok := got.Pairs[k]
		if !ok {
			t.Fatalf("pair %+v missing", k)
		}
		if w.N != g.N || w.Hits != g.Hits {
			t.Errorf("pair %+v: {N:%d Hits:%d}, want {N:%d Hits:%d}", k, g.N, g.Hits, w.N, w.Hits)
		}
		if !reflect.DeepEqual(w.Grid.U, g.Grid.U) || !reflect.DeepEqual(w.Grid.V, g.Grid.V) {
			t.Errorf("pair %+v: grid cells differ", k)
		}
	}
}

// TestKernelWideBooleansMatchBruteForce checks the lane tables and
// their derivation against plain per-row counts, an oracle that shares
// no tally layout with either kernel: groups of 0 to 9 conditions
// (partial last lanes, false wants, filters, shared code passes) and
// pair grids with true and false objectives, over memory, v2 and v3
// storage, serial and with 4 workers.
func TestKernelWideBooleansMatchBruteForce(t *testing.T) {
	rels := wideRelations(t, 12000)
	mem := rels["memory"].(*relation.MemoryRelation)
	for _, name := range []string{"memory", "v2", "v3"} {
		for _, pes := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/pes%d", name, pes), func(t *testing.T) {
				rel := rels[name]
				d := Defaults{GridSide: 12, SampleFactor: 40, Seed: 9, PEs: pes}
				req := wideRequirements(rel.Schema(), d)
				for _, kernel := range []struct {
					name string
					ctx  context.Context
				}{
					{"vectorized", context.Background()},
					{"reference", withRefKernel(context.Background())},
				} {
					set, err := RunContext(kernel.ctx, rel, d, NewCache(0), req)
					if err != nil {
						t.Fatal(err)
					}
					if len(set.Groups) != 11 || len(set.Pairs) != 2 {
						t.Fatalf("%s: %d groups, %d pairs; want 11 and 2", kernel.name, len(set.Groups), len(set.Pairs))
					}
					compareCounts(t, bruteForce(t, mem, set, req), set)
				}
			})
		}
	}
}

// foldFixture counts wideRequirements' schedule over the wide memory
// relation into fresh states.
type foldFixture struct {
	t       *testing.T
	rel     relation.Relation
	set     *StatsSet
	groups  []*GroupNeed
	pairs   []*PairNeed
	cols    relation.ColumnSet
	numPos  map[int]int
	boolPos map[int]int
}

func newFoldFixture(t *testing.T) *foldFixture {
	rel := wideRelations(t, 6000)["memory"]
	d := Defaults{GridSide: 12, SampleFactor: 40, Seed: 9, PEs: 1}
	req := wideRequirements(rel.Schema(), d)
	set, err := Run(rel, d, NewCache(0), req)
	if err != nil {
		t.Fatal(err)
	}
	f := &foldFixture{t: t, rel: rel, set: set}
	for _, gk := range req.GroupOrder {
		f.groups = append(f.groups, req.Groups[gk])
	}
	for _, pk := range req.PairOrder {
		f.pairs = append(f.pairs, req.Pairs[pk])
	}
	f.cols, f.numPos, f.boolPos = execLayout(f.groups, f.pairs)
	return f
}

// state returns a fresh tally state for the schedule.
func (f *foldFixture) state() *execState {
	st, err := newExecState(context.Background(), f.set, f.groups, f.pairs, f.numPos, f.boolPos, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	return st
}

// count tallies rows [start, end) into st.
func (f *foldFixture) count(st *execState, start, end int) {
	if err := scanChunk(context.Background(), f.rel, f.cols, nil, st, start, end); err != nil {
		f.t.Fatal(err)
	}
}

// published returns st's published statistics.
func (f *foldFixture) published(st *execState) *StatsSet {
	out := newStatsSet()
	st.publish(out, nil)
	return out
}

// table is one cells table of a state and the indices of its cells
// that lie outside the trash buckets.
type table struct {
	*cells
	real []int
}

// tables returns every table of st: each group's records, then each
// pair's grid table.
func tables(st *execState) []table {
	var out []table
	for _, gs := range st.groups {
		var real []int
		for i := gs.stride; i < (gs.m+1)*gs.stride; i++ {
			real = append(real, i)
		}
		out = append(out, table{&gs.cells, real})
	}
	for _, ps := range st.pairs {
		var real []int
		for r := 1; r <= ps.grid.Rows(); r++ {
			for c := 1; c <= ps.cols; c++ {
				cell := r*(ps.cols+1) + c
				real = append(real, cell<<1, cell<<1|1)
			}
		}
		out = append(out, table{&ps.cells, real})
	}
	return out
}

// busiest returns, per table of a counted state, the cell outside the
// trash buckets that took the most rows.
func busiest(st *execState) []int {
	var out []int
	for _, c := range tables(st) {
		best := c.real[0]
		for _, i := range c.real {
			if c.n[i] > c.n[best] {
				best = i
			}
		}
		out = append(out, best)
	}
	return out
}

// TestKernelFoldsBeforeCellsWrap primes a state as if it had already
// tallied math.MaxUint32 rows, all into the cell of each table that the
// next rows hit most. Counting must fold the 32-bit cells into their
// 64-bit totals before any cell wraps: the published statistics equal
// those of a state that held the primed counts in 64-bit totals from
// the start and never folded.
func TestKernelFoldsBeforeCellsWrap(t *testing.T) {
	f := newFoldFixture(t)
	n := f.rel.NumTuples()
	probe := f.state()
	f.count(probe, 0, n)
	hot := busiest(probe)

	primed, want := f.state(), f.state()
	primed.tallied = math.MaxUint32
	for i, c := range tables(primed) {
		c.n[hot[i]] = math.MaxUint32
	}
	for i, c := range tables(want) {
		c.wide = make([]int, len(c.n))
		c.wide[hot[i]] = math.MaxUint32
	}
	f.count(primed, 0, n)
	f.count(want, 0, n)
	if primed.tallied != int64(n) {
		t.Fatalf("tallied = %d after the fold and %d rows, want %d", primed.tallied, n, n)
	}
	compareCounts(t, f.published(want), f.published(primed))
}

// TestKernelMergeFoldsPastLimit merges two states whose tallied rows
// sum past math.MaxUint32, each primed with half the limit in its
// tables' busiest cells: merge must fold before adding, so the merged
// statistics equal those of one state holding both primes in 64-bit
// totals that counted every row.
func TestKernelMergeFoldsPastLimit(t *testing.T) {
	f := newFoldFixture(t)
	n := f.rel.NumTuples()
	probe := f.state()
	f.count(probe, 0, n)
	hot := busiest(probe)

	const half = math.MaxUint32/2 + 1
	a, b, want := f.state(), f.state(), f.state()
	for _, st := range []*execState{a, b} {
		st.tallied = half
		for i, c := range tables(st) {
			c.n[hot[i]] = half
		}
	}
	for i, c := range tables(want) {
		c.wide = make([]int, len(c.n))
		c.wide[hot[i]] = 2 * half
	}
	f.count(a, 0, n/2)
	f.count(b, n/2, n)
	f.count(want, 0, n)
	a.merge(b)
	if a.tallied > math.MaxUint32 {
		t.Fatalf("merged state tallied %d rows in its 32-bit cells", a.tallied)
	}
	compareCounts(t, f.published(want), f.published(a))
}
