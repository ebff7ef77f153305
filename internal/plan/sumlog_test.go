package plan

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// sumRelations writes n rows whose target columns mix 1e16 and 1.0 in
// every bucket: against 1e16 a 1.0 is absorbed or rounds the sum, so
// any regrouping of the additions — summing chunk partials and then
// folding them — changes the totals. The rows go to memory, a v2 file,
// a v3 file and a 3-shard v3 manifest.
func sumRelations(t *testing.T, n int) []struct {
	name string
	rel  relation.Relation
} {
	t.Helper()
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "U", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	}
	dir := t.TempDir()
	mem := relation.MustNewMemoryRelation(schema)
	v2, err := relation.NewDiskWriterV2(filepath.Join(dir, "sum.v2.opr"), schema, 700)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := relation.NewDiskWriterV3(filepath.Join(dir, "sum.v3.opr"), schema, 900)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "sum.oprs")
	sw, err := relation.NewShardedWriter(manifest, schema, relation.ShardedWriterOptions{
		Shards: 3, TotalRows: n, Format: relation.DiskFormatV3, GroupRows: 800})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	big := func(i int) float64 {
		switch {
		case i%997 == 0:
			return 1e16
		case i%991 == 0:
			return -1e16
		case rng.Intn(3) == 0:
			return 0.5
		}
		return 1
	}
	for i := 0; i < n; i++ {
		nums := []float64{rng.Float64() * 100, float64(rng.Intn(7)), big(i), big(i + 500)}
		bools := []bool{rng.Intn(2) == 0}
		mem.MustAppend(nums, bools)
		for _, w := range []interface {
			Append([]float64, []bool) error
		}{v2, v3, sw} {
			if err := w.Append(nums, bools); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []interface{ Close() error }{v2, v3, sw} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open := func(name string) relation.Relation {
		dr, err := relation.OpenDisk(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		return dr
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	return []struct {
		name string
		rel  relation.Relation
	}{
		{"memory", mem},
		{"v2", open("sum.v2.opr")},
		{"v3", open("sum.v3.opr")},
		{"sharded", sr},
	}
}

// TestParallelTargetSumsMatchSerial pins the ordered replay of float
// target sums: average-operator groups over order-sensitive targets,
// scheduled beside integer-only groups, count bit-identically at PEs
// 1, 2 and 5 on every backend, and at PEs 2 when transient faults cut
// both chunks' first scans past their first log segment. The fixture
// is checked to be adversarial: summing each planned chunk on its own
// and folding the partials in chunk order gives different bits than
// the serial scan.
func TestParallelTargetSumsMatchSerial(t *testing.T) {
	const n = 30000
	rels := sumRelations(t, n)
	queries := []Query{
		{Op: OpAverage, Numeric: "X", Target: "T", MinSupport: 0.1},
		{Op: OpAverage, Numeric: "X", Target: "U", MinSupport: 0.1},
		{Op: OpAverage, Numeric: "Y", Target: "T", MinSupport: 0.1},
		{Op: OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true},
	}
	run := func(rel relation.Relation, pes int, policy ScatterConfig) (*StatsSet, *Requirements) {
		d := Defaults{Buckets: 5, GridSide: 4, SampleFactor: 40, Seed: 3, PEs: pes, Scatter: policy}
		req := NewRequirements()
		for _, q := range queries {
			r, err := Resolve(rel, d, q)
			if err != nil {
				t.Fatalf("resolve %+v: %v", q, err)
			}
			req.Add(r)
		}
		set, err := Run(rel, d, NewCache(0), req)
		if err != nil {
			t.Fatal(err)
		}
		return set, req
	}
	want, req := run(rels[0].rel, 1, ScatterConfig{})

	// Non-vacuity: folding per-chunk partial sums must lose bit identity.
	var groups []*GroupNeed
	for _, gk := range req.GroupOrder {
		groups = append(groups, req.Groups[gk])
	}
	cols, _, _ := execLayout(groups, nil)
	regrouped := false
	for _, g := range groups {
		if len(g.Targets) == 0 {
			continue
		}
		b := want.Bounds[g.boundKey()]
		for _, tgt := range g.Targets {
			folded := make([]float64, b.NumBuckets())
			for _, c := range relation.PlanScanChunks(rels[0].rel, 5, cols, nil) {
				part := make([]float64, b.NumBuckets())
				err := rels[0].rel.ScanRange(c.Start, c.End,
					relation.ColumnSet{Numeric: []int{g.Driver, tgt}}, func(bt *relation.Batch) error {
						for row := 0; row < bt.Len; row++ {
							if i := b.Locate(bt.Numeric[0][row]); i >= 0 {
								part[i] += bt.Numeric[1][row]
							}
						}
						return nil
					})
				if err != nil {
					t.Fatal(err)
				}
				for i := range folded {
					folded[i] += part[i]
				}
			}
			for i, s := range want.Groups[g.Key].Sum[tgt] {
				if math.Float64bits(s) != math.Float64bits(folded[i]) {
					regrouped = true
				}
			}
		}
	}
	if !regrouped {
		t.Fatal("folding chunk partials reproduces the serial sums; the fixture cannot catch a regrouped addition order")
	}

	for _, r := range rels {
		for _, pes := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/pes%d", r.name, pes), func(t *testing.T) {
				got, _ := run(r.rel, pes, ScatterConfig{})
				compareStatsSets(t, want, got)
			})
		}
	}
	t.Run("memory/pes2/transient", func(t *testing.T) {
		var stats ScatterStats
		frel := relation.NewFaultRelation(rels[0].rel, relation.FaultConfig{FailScans: []int{1, 2}, FailAfterRows: 9000})
		got, _ := run(frel, 2, ScatterConfig{MaxAttempts: 2, Stats: &stats})
		if frel.Injected() != 2 || stats.Retries.Load() != 2 {
			t.Fatalf("%d faults injected, %d retries; want 2 and 2", frel.Injected(), stats.Retries.Load())
		}
		compareStatsSets(t, want, got)
	})
}

// testSumLog returns the ordered replay of one group with m buckets and
// one target, counted in chunks chunks by workers workers.
func testSumLog(t *testing.T, m, chunks, workers int) *sumLog {
	t.Helper()
	cuts := make([]float64, m-1)
	for i := range cuts {
		cuts[i] = float64(i)
	}
	b, err := bucketing.NewBoundaries(cuts)
	if err != nil {
		t.Fatal(err)
	}
	set := newStatsSet()
	g := &GroupNeed{Key: GroupKey{Driver: 0, M: m}, Targets: []int{1}}
	set.Bounds[g.boundKey()] = b
	l, err := newSumLog(set, []*GroupNeed{g}, chunks, workers)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// logRows is one segment's content: a bucket (−1 is the trash bucket)
// and a target value per row.
type logRows struct {
	eff []int32
	val []float64
}

// fill copies rows into a fresh segment of l.
func (r logRows) fill(l *sumLog) *sumSeg {
	s := l.segment()
	s.n = copy(s.eff[0], r.eff)
	copy(s.val[0][0], r.val)
	return s
}

// addInOrder sums segments' rows one by one into m+1 padded totals,
// the trash bucket's first.
func addInOrder(m int, segs ...logRows) []float64 {
	sums := make([]float64, m+1)
	for _, r := range segs {
		for row, e := range r.eff {
			sums[e+1] += r.val[row]
		}
	}
	return sums
}

// sameBits reports whether two sum arrays agree bit for bit.
func sameBits(a, b []float64) bool {
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

// TestSumLogReplaysInChunkOrder drives the ordered replay by hand with
// chunks closing out of order: chunk 2 finishes first, chunk 1 closes a
// segment before the head does, and the head's last segment then
// carries the replay across both finished chunks. The totals must equal
// adding every row in chunk order, and the fixture's values are checked
// to be order-sensitive: adding the segments in completion order gives
// different bits.
func TestSumLogReplaysInChunkOrder(t *testing.T) {
	const m = 3
	rng := rand.New(rand.NewSource(41))
	seg := func() logRows {
		var r logRows
		for row := 0; row < 60; row++ {
			r.eff = append(r.eff, int32(rng.Intn(m+1)-1))
			r.val = append(r.val, []float64{1e16, -1e16, 1, 0.5, 3}[rng.Intn(5)])
		}
		return r
	}
	c0a, c0b, c1a, c1b, c2a, c2b := seg(), seg(), seg(), seg(), seg(), seg()
	want := addInOrder(m, c0a, c0b, c1a, c1b, c2a, c2b)
	if sameBits(want, addInOrder(m, c2a, c2b, c1a, c0a, c1b, c0b)) {
		t.Fatal("completion-order addition matches chunk order; the fixture cannot catch a misordered replay")
	}

	l := testSumLog(t, m, 3, 3)
	l.close(2, c2a.fill(l), false)
	l.close(2, c2b.fill(l), true)
	l.close(1, c1a.fill(l), false)
	if !sameBits(l.sums[0][0], make([]float64, m+1)) {
		t.Fatalf("segments of chunks ahead of the head were replayed early: %v", l.sums[0][0])
	}
	l.close(0, c0a.fill(l), false)
	if got := l.sums[0][0]; !sameBits(got, addInOrder(m, c0a)) {
		t.Fatalf("after the head's first segment: sums %v, want %v", got, addInOrder(m, c0a))
	}
	l.close(1, c1b.fill(l), true)
	l.close(0, c0b.fill(l), true)
	if got := l.sums[0][0]; !sameBits(got, want) {
		t.Fatalf("sums %v, want the chunk-order sums %v", got, want)
	}
	if l.head != 3 || l.waiting != 0 {
		t.Fatalf("head %d with %d segments waiting, want 3 and 0", l.head, l.waiting)
	}
}

// TestSumLogBackpressure pins the log's memory bound: with the head
// stalled, a chunk ahead of it blocks once limit closed segments wait
// for replay, the head itself never blocks, and the blocked chunk
// resumes once the head is done. Every segment the log ever allocated
// ends on its free list, so the list's length is the peak: at most the
// limit plus the two open segments, however many the chunk closes.
func TestSumLogBackpressure(t *testing.T) {
	const m = 2
	l := testSumLog(t, m, 3, 1)
	rows := func(i int) logRows {
		return logRows{eff: []int32{int32(i%(m+1) - 1)}, val: []float64{float64(i%7) + 0.25}}
	}
	ahead := 3 * l.limit
	var closed atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < ahead; i++ {
			l.close(1, rows(i).fill(l), false)
			closed.Add(1)
		}
		l.close(1, nil, true)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for closed.Load() < int64(l.limit) {
		if time.Now().After(deadline) {
			t.Fatalf("chunk 1 closed %d segments in 10 s, want %d", closed.Load(), l.limit)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := closed.Load(); got != int64(l.limit) {
		t.Fatalf("chunk 1 closed %d segments ahead of a stalled head, want it blocked at the limit %d", got, l.limit)
	}
	var segs []logRows
	for i := 0; i < 2*l.limit; i++ { // the head closes past the limit without blocking
		r := rows(1000 + i)
		segs = append(segs, r)
		l.close(0, r.fill(l), false)
	}
	l.close(0, nil, true)
	<-finished
	l.close(2, nil, true)
	for i := 0; i < ahead; i++ {
		segs = append(segs, rows(i))
	}
	if got, want := l.sums[0][0], addInOrder(m, segs...); !sameBits(got, want) {
		t.Fatalf("sums %v, want the chunk-order sums %v", got, want)
	}
	if n := len(l.free); n > l.limit+2 {
		t.Fatalf("log allocated %d segments, want at most the limit %d plus two open ones", n, l.limit)
	}
}
