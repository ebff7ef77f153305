package bucketing

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/relation"
)

// The MultiCount name below is kept from the multi-driver counting API
// it first pinned; the per-driver Count carries the same contract.

// pushdownFixture writes a clustered-filter data set as a v3 file and
// mirrors it in memory: F is true only in rows [lo,hi), so every block
// group outside that band is provably filter-free and prunable.
func pushdownFixture(t *testing.T, n, gr, lo, hi int) (*relation.DiskRelation, *relation.MemoryRelation) {
	t.Helper()
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "F", Kind: relation.Boolean},
		{Name: "C", Kind: relation.Boolean},
	}
	path := filepath.Join(t.TempDir(), "pushdown.opr")
	dw, err := relation.NewDiskWriterV3(path, schema, gr)
	if err != nil {
		t.Fatal(err)
	}
	mem := relation.MustNewMemoryRelation(schema)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		nums := []float64{rng.NormFloat64() * 100, rng.Float64() * 10}
		bools := []bool{i >= lo && i < hi, rng.Intn(2) == 0}
		if err := dw.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
		mem.MustAppend(nums, bools)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dr.Close() })
	return dr, mem
}

// TestMultiCountFilterPushdownOverV3 pins the counting scan's zone-map
// filter pushdown: with a clustered filter column, Count over a v3
// relation must produce Counts identical to the in-memory reference —
// Total included, i.e. skipped rows are accounted without being read —
// while reading strictly fewer physical bytes than the same call
// without a filter.
func TestMultiCountFilterPushdownOverV3(t *testing.T) {
	const n, gr = 20000, 1000
	dr, mem := pushdownFixture(t, n, gr, 4000, 8000)
	bounds, err := SampledBoundaries(mem, 0, 50, 40, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Bools:         []BoolCond{{Attr: 3, Want: true}},
		Targets:       []int{1},
		Filter:        []BoolCond{{Attr: 2, Want: true}},
		TrackExtremes: true,
	}
	want, err := Count(mem, 0, bounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := dr.BytesRead()
	got, err := Count(dr, 0, bounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	filtered := dr.BytesRead() - before
	if !reflect.DeepEqual(want, got) {
		t.Errorf("pushdown changed the counts:\n  memory: %+v\n  v3:     %+v", want, got)
	}
	if got.Total != n {
		t.Errorf("Total = %d, want %d (skipped rows must still be accounted)", got.Total, n)
	}
	// The unfiltered scan reads every block; the pruned scan must skip
	// the 16 of 20 groups whose F zone map refutes the filter.
	unfiltered := opts
	unfiltered.Filter = nil
	before = dr.BytesRead()
	if _, err := Count(dr, 0, bounds, unfiltered); err != nil {
		t.Fatal(err)
	}
	full := dr.BytesRead() - before
	if filtered >= full {
		t.Errorf("filtered scan read %d bytes, unfiltered read %d; zone maps pruned nothing", filtered, full)
	}
}
