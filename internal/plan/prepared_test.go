package plan

import (
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/core"
)

// TestPreparedRowsKeptWithEntry pins where prepared solver inputs
// live: in the cache entry of the statistic they came from, built once
// and shared, charged by Put1D up front, and replaced with the entry's
// statistic. The statistic stays a plain value, so a cached one still
// compares equal to a recount of the same rows (the benchmark's replay
// check) after its rows were prepared.
func TestPreparedRowsKeptWithEntry(t *testing.T) {
	c := NewCache(-1)
	key := GroupKey{Driver: 1, M: 4}
	obj := bucketing.BoolCond{Attr: 3, Want: true}
	stats := func() *Stats1D {
		return &Stats1D{M: 4, N: 9, Total: 9, U: []int{4, 0, 3, 2},
			MinVal: []float64{1, 0, 5, 7}, MaxVal: []float64{2, 0, 6, 9},
			V:   map[bucketing.BoolCond][]int{obj: {1, 0, 3, 1}},
			Sum: map[int][]float64{2: {0.5, 0, 1e16, -1e16}}}
	}
	st := c.Put1D(key, stats())
	if got, want := c.Stats().Bytes, st.sizeBytes(); got != want || want < 2*core.PreparedBytes(4) {
		t.Fatalf("cache charged %d bytes, want %d including two prepared rows", got, want)
	}
	rows := c.Prepared(key, st)
	if c.Prepared(key, st) != rows {
		t.Fatal("a second lookup built new rows")
	}
	compact, keep := rows.Compacted()
	if compact.M != 3 || !reflect.DeepEqual(keep, []int{0, 2, 3}) || !reflect.DeepEqual(compact.MaxVal, []float64{2, 6, 9}) {
		t.Fatalf("compacted view %+v, keep %v", compact, keep)
	}
	pv, err := rows.V(obj)
	if err != nil || !reflect.DeepEqual(pv.V, []float64{1, 3, 1}) || !reflect.DeepEqual(pv.U, []int{4, 3, 2}) {
		t.Fatalf("objective row prepared as U %v V %v (%v)", pv.U, pv.V, err)
	}
	if again, _ := c.Prepared(key, st).V(obj); again != pv {
		t.Error("objective row prepared twice")
	}
	ps, err := rows.Sum(2)
	if err != nil || !reflect.DeepEqual(ps.V, []float64{0.5, 1e16, -1e16}) {
		t.Fatalf("target row prepared as %v (%v)", ps.V, err)
	}
	if _, err := rows.V(bucketing.BoolCond{Attr: 4}); err == nil {
		t.Error("missing objective row prepared")
	}
	if _, err := rows.Sum(5); err == nil {
		t.Error("missing target row prepared")
	}
	if !reflect.DeepEqual(st, stats()) {
		t.Error("preparing rows changed the statistic's value")
	}

	// A merge publishes a new statistic with new rows; the old
	// statistic's rows are no longer kept.
	more := stats()
	more.V = map[bucketing.BoolCond][]int{{Attr: 3}: {3, 0, 0, 1}}
	merged := c.Put1D(key, more)
	if c.Prepared(key, merged) == rows {
		t.Error("merged statistic reuses the old statistic's rows")
	}
	if old := c.Prepared(key, st); old == rows || old == c.Prepared(key, st) {
		t.Error("rows of a replaced statistic are still kept")
	}
	c.Invalidate()
	if c.Prepared(key, merged) == c.Prepared(key, merged) {
		t.Error("rows kept for an invalidated entry")
	}
}
