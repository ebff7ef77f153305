package bucketing_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/plan"
	"optrule/internal/relation"
)

// Algorithm 3.2 runs in one place, the engine's counting executor
// (plan.RunContext). The tests below pin it against the sequential
// bucketing.Count at several worker counts over every storage backend.

// engineCount counts one driver through the engine's counting executor
// with pes workers, over a fresh cache seeded with bounds, and returns
// the group's statistics in bucketing.Count's shape.
func engineCount(t *testing.T, rel relation.Relation, driver int, bounds bucketing.Boundaries, opts bucketing.Options, pes int) *bucketing.Counts {
	t.Helper()
	s := rel.Schema()
	q := plan.Query{Op: plan.OpRules, Numeric: s[driver].Name, Kinds: []plan.RuleKind{}}
	for _, bc := range opts.Filter {
		q.Conditions = append(q.Conditions, plan.Condition{Attr: s[bc.Attr].Name, Value: bc.Want})
	}
	d := plan.Defaults{Buckets: bounds.NumBuckets(), GridSide: 1, SampleFactor: 40, PEs: pes}
	r, err := plan.Resolve(rel, d, q)
	if err != nil {
		t.Fatal(err)
	}
	req := plan.NewRequirements()
	req.Add(r)
	need := req.Groups[r.Keys[0]]
	need.Bools, need.Targets, need.TrackExtremes = opts.Bools, opts.Targets, opts.TrackExtremes
	cache := plan.NewCache(0)
	cache.PutBounds(plan.BoundKey{Attr: driver, M: bounds.NumBuckets()}, bounds, rel.NumTuples())
	set, err := plan.Run(rel, d, cache, req)
	if err != nil {
		t.Fatalf("pes=%d: %v", pes, err)
	}
	// bucketing.Count allocates one (possibly empty) row list per kind.
	st := set.Groups[r.Keys[0]]
	c := &bucketing.Counts{M: st.M, N: st.N, Total: st.Total, NaNs: st.NaNs, U: st.U,
		V: [][]int{}, Sum: [][]float64{}}
	for _, bc := range opts.Bools {
		c.V = append(c.V, st.V[bc])
	}
	for _, t := range opts.Targets {
		c.Sum = append(c.Sum, st.Sum[t])
	}
	if opts.TrackExtremes {
		c.MinVal, c.MaxVal = st.MinVal, st.MaxVal
	}
	return c
}

func TestParallelCountMatchesSequential(t *testing.T) {
	rel := bucketing.UniformRelation(t, 30000, 5)
	bounds, err := bucketing.SampledBoundaries(rel, 0, 100, 40, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	opts := bucketing.Options{Bools: []bucketing.BoolCond{{Attr: 1, Want: true}}, TrackExtremes: true}
	seq, err := bucketing.Count(rel, 0, bounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range []int{1, 2, 3, 7, 16} {
		if par := engineCount(t, rel, 0, bounds, opts, pes); !reflect.DeepEqual(par, seq) {
			t.Errorf("pes=%d: executor counts differ from bucketing.Count:\n  got  %+v\n  want %+v", pes, par, seq)
		}
	}
}

// TestParallelMultiCountMatchesMultiCount pins the executor against
// bucketing.Count for each of several drivers (one with NaN holes) with two
// objectives, a target sum and extremes. The executor adds target sums
// in the serial scan's order, so every statistic, sums included, must
// be identical.
func TestParallelMultiCountMatchesMultiCount(t *testing.T) {
	rel := bucketing.MultiRelation(t, 3000)
	b0, err := bucketing.NewBoundaries([]float64{20, 40, 60, 80})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := bucketing.NewBoundaries([]float64{-1000, 0, 1000})
	if err != nil {
		t.Fatal(err)
	}
	drivers := []int{0, 1}
	bounds := []bucketing.Boundaries{b0, b1}
	opts := bucketing.Options{
		Bools:         []bucketing.BoolCond{{Attr: 2, Want: true}, {Attr: 4, Want: false}},
		Targets:       []int{3},
		TrackExtremes: true,
	}
	for d, driver := range drivers {
		want, err := bucketing.Count(rel, driver, bounds[d], opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range []int{1, 2, 7, 16} {
			if got := engineCount(t, rel, driver, bounds[d], opts, pes); !reflect.DeepEqual(got, want) {
				t.Errorf("pes=%d driver %d: executor counts differ from bucketing.Count:\n  got  %+v\n  want %+v", pes, driver, got, want)
			}
		}
		if want.NaNs == 0 && driver == 1 {
			t.Errorf("driver %d has no NaN values; the NaN path is untested", driver)
		}
	}
}

func TestParallelCountMorePEsThanRows(t *testing.T) {
	rel := bucketing.UniformRelation(t, 3, 8)
	bounds, _ := bucketing.NewBoundaries([]float64{0.5e6})
	if c := engineCount(t, rel, 0, bounds, bucketing.Options{}, 64); c.N != 3 || c.Total != 3 {
		t.Errorf("N/Total = %d/%d, want 3/3", c.N, c.Total)
	}
}

func TestParallelCountOnDiskRelation(t *testing.T) {
	// Algorithm 3.2's real use case: disjoint scans of an on-disk file.
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	}
	path := t.TempDir() + "/par.opr"
	dw, err := relation.NewDiskWriter(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	n := 20000
	for i := 0; i < n; i++ {
		if err := dw.Append([]float64{rng.Float64() * 100}, []bool{rng.Intn(3) == 0}); err != nil {
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
	bounds, _ := bucketing.NewBoundaries([]float64{25, 50, 75})
	opts := bucketing.Options{Bools: []bucketing.BoolCond{{Attr: 1, Want: true}}}
	seq, err := bucketing.Count(dr, 0, bounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if par := engineCount(t, dr, 0, bounds, opts, 8); !reflect.DeepEqual(seq, par) {
		t.Errorf("disk parallel count differs from sequential")
	}
}

// parallelMatchesSequential checks that the executor over rel equals
// the sequential bucketing.Count for each driver at every listed worker count,
// with two drivers' boundaries drawn by one fused sampling pass.
func parallelMatchesSequential(t *testing.T, rel relation.Relation, pesList []int) {
	t.Helper()
	drivers := []int{0, 1}
	rngs := []*rand.Rand{rand.New(rand.NewSource(5)), rand.New(rand.NewSource(6))}
	bounds, err := bucketing.MultiSampledBoundaries(rel, drivers, 50, 40, 0, rngs)
	if err != nil {
		t.Fatal(err)
	}
	opts := bucketing.Options{Bools: []bucketing.BoolCond{{Attr: 2, Want: true}}, TrackExtremes: true}
	for d, driver := range drivers {
		seq, err := bucketing.Count(rel, driver, bounds[d], opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range pesList {
			if par := engineCount(t, rel, driver, bounds[d], opts, pes); !reflect.DeepEqual(par, seq) {
				t.Fatalf("pes=%d driver %d: executor counts differ from the sequential scan", pes, driver)
			}
		}
	}
}

// TestParallelMultiCountSharded pins that the executor's chunked scan
// over a SHARDED relation produces counts identical to the sequential
// scan over the same rows. (The name is kept from the multi-driver
// counting API this test first pinned.)
func TestParallelMultiCountSharded(t *testing.T) {
	schema := relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	}
	path := filepath.Join(t.TempDir(), "par.oprs")
	sw, err := relation.NewShardedWriter(path, schema, relation.ShardedWriterOptions{Shards: 4, TotalRows: 12345, GroupRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12345; i++ {
		if err := sw.Append([]float64{rng.NormFloat64(), rng.Float64() * 100}, []bool{rng.Intn(3) == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	parallelMatchesSequential(t, rel, []int{2, 5, 16})
}

// TestParallelMultiCountV2Aligned pins that the executor's group-aligned
// chunked scan over a v2 disk relation produces counts identical to the
// sequential scan.
func TestParallelMultiCountV2Aligned(t *testing.T) {
	schema := relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	}
	path := filepath.Join(t.TempDir(), "par_v2.opr")
	dw, err := relation.NewDiskWriterV2(path, schema, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := 12345 // 12 full groups + a 345-row tail
	for i := 0; i < n; i++ {
		if err := dw.Append([]float64{rng.NormFloat64(), rng.Float64() * 100}, []bool{rng.Intn(3) == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	parallelMatchesSequential(t, rel, []int{2, 3, 7, 16})
}

// TestParallelMultiCountFilterPushdownOverV3 checks the executor's
// chunked scan path: pruned chunk scans must still account every
// skipped row in the merged totals, agree with the serial result
// exactly, and read fewer bytes than the unfiltered parallel scan.
func TestParallelMultiCountFilterPushdownOverV3(t *testing.T) {
	const n, gr = 20000, 1000
	dr, mem := bucketing.PushdownFixture(t, n, gr, 4000, 8000)
	bounds, err := bucketing.SampledBoundaries(mem, 0, 50, 40, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	opts := bucketing.Options{
		Bools:         []bucketing.BoolCond{{Attr: 3, Want: true}},
		Filter:        []bucketing.BoolCond{{Attr: 2, Want: true}},
		TrackExtremes: true,
	}
	want, err := bucketing.Count(mem, 0, bounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	unfiltered := opts
	unfiltered.Filter = nil
	for _, pes := range []int{2, 4, 7} {
		before := dr.BytesRead()
		got := engineCount(t, dr, 0, bounds, opts, pes)
		filtered := dr.BytesRead() - before
		if !reflect.DeepEqual(want, got) {
			t.Errorf("pes=%d: parallel pushdown changed the counts:\n  serial memory: %+v\n  parallel v3:   %+v",
				pes, want, got)
		}
		if got.Total != n {
			t.Errorf("pes=%d: Total = %d, want %d", pes, got.Total, n)
		}
		before = dr.BytesRead()
		engineCount(t, dr, 0, bounds, unfiltered, pes)
		if full := dr.BytesRead() - before; filtered >= full {
			t.Errorf("pes=%d: filtered scan read %d bytes, unfiltered read %d; zone maps pruned nothing", pes, filtered, full)
		}
	}
}
