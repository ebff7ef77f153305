package experiments

// The engine invariants that optbench's engineering experiments used
// to pin, checked end to end through the public engine API on
// generated data at experiment scale: the column byte model of the
// disk formats, the fused engine's scan and byte counts, the counting
// kernel against the per-attribute counting pass, sharding's byte
// contract, and the v3 format's compression and zone-map pruning.

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/datagen"
	"optrule/internal/miner"
	"optrule/internal/plan"
	"optrule/internal/region"
	"optrule/internal/relation"
)

// openGenerated writes n tuples of src to a disk file of the given
// format under t's temporary directory and opens it.
func openGenerated(t *testing.T, name string, src datagen.RowSource, n int, seed int64, format int) *relation.DiskRelation {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := datagen.WriteDiskFormat(path, src, n, seed, format); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	return rel
}

// TestColScanByteModel pins the counted-I/O model of the disk formats:
// v1 (row-major) pays the full row width for every selected-column
// count, v2 (column-major) pays exactly the selected columns, and at 2
// of 8 columns v2 reads at least 2x fewer bytes.
func TestColScanByteModel(t *testing.T) {
	const n, d, bools = 20000, 8, 2
	shape, err := datagen.NewPerfShape(d, bools, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := openGenerated(t, "cols_v1.opr", shape, n, 1, relation.DiskFormatV1)
	v2 := openGenerated(t, "cols_v2.opr", shape, n, 1, relation.DiskFormatV2)
	scan := func(dr *relation.DiskRelation, k int) int64 {
		cols := relation.ColumnSet{Numeric: make([]int, k)}
		for i := range cols.Numeric {
			cols.Numeric[i] = i
		}
		dr.ResetBytesRead()
		sum := 0.0
		if err := dr.Scan(cols, func(b *relation.Batch) error {
			for _, col := range b.Numeric {
				for _, v := range col[:b.Len] {
					sum += v
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return dr.BytesRead()
	}
	rowBytes := int64(8*d + (bools+7)/8)
	for _, k := range []int{1, 2, 8} {
		v1Bytes, v2Bytes := scan(v1, k), scan(v2, k)
		if v1Bytes != int64(n)*rowBytes {
			t.Errorf("k=%d: v1 bytes = %d, want %d (full rows regardless of selection)",
				k, v1Bytes, int64(n)*rowBytes)
		}
		if want := int64(n) * 8 * int64(k); v2Bytes != want {
			t.Errorf("k=%d: v2 bytes = %d, want %d (selected columns only)", k, v2Bytes, want)
		}
		if k == 2 && v2Bytes*2 > v1Bytes {
			t.Errorf("k=2: v2 reads %d bytes vs v1 %d, want >= 2x reduction", v2Bytes, v1Bytes)
		}
	}
}

// TestFusedExperimentShape compares the per-attribute bucketing
// pipeline (one sampling scan plus one counting scan per numeric
// attribute) with the fused plan executor (one point read per
// attribute plus one counting scan in total) on the same disk relation:
// 2d scans against 1, and fewer streamed rows as soon as there is more
// than one attribute.
func TestFusedExperimentShape(t *testing.T) {
	const n, buckets, seed = 20000, 1000, 1
	for _, d := range []int{1, 3} {
		shape, err := datagen.NewPerfShape(d, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		rel := openGenerated(t, "fused.opr", shape, n, seed, relation.DiskFormatV2)
		s := rel.Schema()
		var opts bucketing.Options
		for _, b := range s.BooleanIndices() {
			opts.Bools = append(opts.Bools, bucketing.BoolCond{Attr: b, Want: true})
		}
		opts.TrackExtremes = true
		dflt := plan.Defaults{Buckets: buckets, GridSide: 32, SampleFactor: 40, Seed: seed, PEs: 1}

		legacy := &relation.CountingRelation{R: rel}
		for _, attr := range s.NumericIndices() {
			bounds, err := bucketing.SampledBoundaries(legacy, attr, buckets, dflt.SampleFactor,
				plan.AttrRNG(seed, attr))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bucketing.Count(legacy, attr, bounds, opts); err != nil {
				t.Fatal(err)
			}
		}

		fused := &relation.CountingRelation{R: rel}
		r, err := plan.Resolve(fused, dflt, plan.Query{Op: plan.OpRules})
		if err != nil {
			t.Fatal(err)
		}
		req := plan.NewRequirements()
		req.Add(r)
		if _, err := plan.Run(fused, dflt, plan.NewCache(0), req); err != nil {
			t.Fatal(err)
		}

		if fused.PointReads != d || len(fused.Ranges) != 1 || fused.Ranges[0] != [2]int{0, n} {
			t.Errorf("attrs=%d: fused pipeline issued %d point reads and scans %v, want %d point reads and one scan of [0,%d)",
				d, fused.PointReads, fused.Ranges, d, n)
		}
		if want := 2 * d; legacy.Scans != want {
			t.Errorf("attrs=%d: legacy pipeline issued %d scans, want %d", d, legacy.Scans, want)
		}
		if d > 1 && fused.Rows >= legacy.Rows {
			t.Errorf("attrs=%d: fused streamed %d rows, legacy %d; fused should read less",
				d, fused.Rows, legacy.Rows)
		}
	}
}

// TestKernelExperimentRuns checks the vectorized counting kernel
// against independent counting on the all-attribute rules batch and on
// a mixed 1-D+2-D batch: every 1-D group must equal the per-attribute
// bucketing.Count pass over the same boundaries, every pair grid must
// equal a per-tuple count, and adding the pair grid to the batch must
// leave the 1-D groups unchanged.
func TestKernelExperimentRuns(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Defaults{Buckets: 500, GridSide: 32, SampleFactor: 40, Seed: 1}
	run := func(queries []plan.Query) *plan.StatsSet {
		req := plan.NewRequirements()
		for _, q := range queries {
			r, err := plan.Resolve(rel, d, q)
			if err != nil {
				t.Fatal(err)
			}
			req.Add(r)
		}
		set, err := plan.Run(rel, d, plan.NewCache(0), req)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	rulesQ := []plan.Query{{Op: plan.OpRules}}
	mixedQ := append(rulesQ, plan.Query{
		Op: plan.OpRules2D, Numeric: "Balance", NumericB: "Age",
		Objective: "CardLoan", ObjectiveValue: true,
	})
	rules, mixed := run(rulesQ), run(mixedQ)
	if len(rules.Groups) == 0 || len(rules.Pairs) != 0 || len(mixed.Pairs) != 1 {
		t.Fatalf("vacuous batches: rules %d groups, %d pairs; mixed %d pairs",
			len(rules.Groups), len(rules.Pairs), len(mixed.Pairs))
	}
	if !reflect.DeepEqual(rules.Groups, mixed.Groups) {
		t.Errorf("adding a pair grid changed the 1-D statistics")
	}

	for key, g := range mixed.Groups {
		if key.Filter != "" {
			t.Fatalf("group %+v: unexpected filter", key)
		}
		bounds, ok := mixed.Bounds[plan.BoundKey{Attr: key.Driver, M: key.M, Exact: key.Exact}]
		if !ok {
			t.Fatalf("group %+v: no boundaries", key)
		}
		opts := bucketing.Options{TrackExtremes: g.MinVal != nil}
		for cond := range g.V {
			opts.Bools = append(opts.Bools, cond)
		}
		for target := range g.Sum {
			opts.Targets = append(opts.Targets, target)
		}
		want, err := bucketing.Count(rel, key.Driver, bounds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if g.N != want.N || g.Total != want.Total || g.NaNs != want.NaNs || !reflect.DeepEqual(g.U, want.U) {
			t.Errorf("group %+v: kernel N=%d Total=%d NaNs=%d, per-attribute count N=%d Total=%d NaNs=%d (or bucket counts differ)",
				key, g.N, g.Total, g.NaNs, want.N, want.Total, want.NaNs)
		}
		for i, cond := range opts.Bools {
			if !reflect.DeepEqual(g.V[cond], want.V[i]) {
				t.Errorf("group %+v: objective %+v counts differ from the per-attribute count", key, cond)
			}
		}
		for i, target := range opts.Targets {
			if !reflect.DeepEqual(g.Sum[target], want.Sum[i]) {
				t.Errorf("group %+v: target %d sums differ from the per-attribute count", key, target)
			}
		}
		if opts.TrackExtremes && (!reflect.DeepEqual(g.MinVal, want.MinVal) || !reflect.DeepEqual(g.MaxVal, want.MaxVal)) {
			t.Errorf("group %+v: bucket extremes differ from the per-attribute count", key)
		}
	}

	for key, p := range mixed.Pairs {
		boundsA := mixed.Bounds[plan.BoundKey{Attr: key.A, M: key.Side}]
		boundsB := mixed.Bounds[plan.BoundKey{Attr: key.B, M: key.Side}]
		want, err := region.NewGrid(boundsA.NumBuckets(), boundsB.NumBuckets())
		if err != nil {
			t.Fatal(err)
		}
		n, hits := 0, 0
		cols := relation.ColumnSet{Numeric: []int{key.A, key.B}, Bool: []int{key.ObjAttr}}
		if err := rel.Scan(cols, func(b *relation.Batch) error {
			for row := 0; row < b.Len; row++ {
				a, v := b.Numeric[0][row], b.Numeric[1][row]
				if math.IsNaN(a) || math.IsNaN(v) {
					continue
				}
				ra, cb := boundsA.Locate(a), boundsB.Locate(v)
				want.U[ra][cb]++
				n++
				if b.Bool[0][row] == key.ObjWant {
					want.V[ra][cb]++
					hits++
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n == 0 || p.N != n || p.Hits != hits ||
			!reflect.DeepEqual(p.Grid.U, want.U) || !reflect.DeepEqual(p.Grid.V, want.V) {
			t.Errorf("pair %+v: kernel grid (N=%d, hits=%d) differs from the per-tuple count (N=%d, hits=%d)",
				key, p.N, p.Hits, n, hits)
		}
	}
}

// TestShardsIdenticalBytes pins the sharding contract: every layout —
// single file, 2 and 3 shards — mines the same rules, and the counted
// bytes are equal up to Boolean bitmap padding (each shard rounds every
// Boolean column up to whole bytes: at most one byte per Boolean
// attribute per shard), because sharding changes where rows live, never
// how many are read.
func TestShardsIdenticalBytes(t *testing.T) {
	const n, seed = 20000, 1
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := miner.Config{Buckets: 1000, Seed: seed}
	single := openGenerated(t, "bank.opr", bank, n, seed, relation.DiskFormatV2)
	want, err := miner.MineAll(single, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rules) == 0 {
		t.Fatal("degenerate workload: no rules mined")
	}
	singleBytes := single.BytesRead()
	boolAttrs := len(single.Schema().BooleanIndices())

	for _, shards := range []int{2, 3} {
		manifest := filepath.Join(t.TempDir(), "bank.oprs")
		if err := datagen.WriteSharded(manifest, bank, n, seed, shards, relation.DiskFormatV2); err != nil {
			t.Fatal(err)
		}
		sr, err := relation.OpenSharded(manifest)
		if err != nil {
			t.Fatal(err)
		}
		pad := int64(boolAttrs * shards)
		got, err := miner.MineAll(sr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rules, want.Rules) {
			t.Errorf("%d shards: rules differ from the single file's", shards)
		}
		if d := sr.BytesRead() - singleBytes; d < 0 || d > pad {
			t.Errorf("%d shards: read %d bytes, single file %d (allowed padding %d)",
				shards, sr.BytesRead(), singleBytes, pad)
		}
		sr.Close()
	}
}

// TestTwoDimExperimentShape compares the fused all-pairs 2-D engine
// (MineAll2D: two scans in total) with mining the same pairs and kinds
// one Mine2D call at a time (two scans per call): the fused engine
// reads fewer counted bytes at every point, the gap grows with the
// pair count, and a single-pair sweep over every kind and region class
// yields every requested rule family.
func TestTwoDimExperimentShape(t *testing.T) {
	shape, err := datagen.NewPerfShape(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := openGenerated(t, "twodim.opr", shape, 4000, 3, relation.DiskFormatV2)
	s := rel.Schema()
	nums := s.NumericIndices()
	objective := s[s.BooleanIndices()[0]].Name
	kinds := []miner.RuleKind{miner.OptimizedSupport, miner.OptimizedConfidence}
	cfg := miner.Config{Seed: 3}

	ratio := map[int]float64{} // attribute count -> per-pair / fused bytes at side 16
	for _, d := range []int{2, 4} {
		names := make([]string, d)
		for k := range names {
			names[k] = s[nums[k]].Name
		}
		for _, side := range []int{8, 16} {
			rel.ResetBytesRead()
			out, err := miner.MineAll2D(rel, miner.Options2D{
				Numerics: names, Objective: objective, ObjectiveValue: true,
				Kinds: kinds, GridSide: side,
			}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fusedBytes := rel.BytesRead()
			if want := d * (d - 1) / 2; out.Pairs != want {
				t.Errorf("attrs=%d: mined %d pairs, want %d", d, out.Pairs, want)
			}

			rel.ResetBytesRead()
			for i := 0; i < d; i++ {
				for j := i + 1; j < d; j++ {
					for _, kind := range kinds {
						if _, err := miner.Mine2D(rel, names[i], names[j], objective, true, kind, side, cfg); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			perPairBytes := rel.BytesRead()
			if fusedBytes >= perPairBytes {
				t.Errorf("attrs=%d side=%d: fused read %d bytes, per-pair %d; fused must read less",
					d, side, fusedBytes, perPairBytes)
			}
			if side == 16 {
				ratio[d] = float64(perPairBytes) / float64(fusedBytes)
			}
		}
	}
	if ratio[4] <= ratio[2] {
		t.Errorf("byte ratio should grow with pairs: d=2 %.1fx, d=4 %.1fx", ratio[2], ratio[4])
	}

	out, err := miner.MineAll2D(rel, miner.Options2D{
		Numerics: []string{s[nums[0]].Name, s[nums[1]].Name}, Objective: objective, ObjectiveValue: true,
		Kinds:    []miner.RuleKind{miner.OptimizedSupport, miner.OptimizedConfidence, miner.OptimizedGain},
		Regions:  []miner.RegionClass{miner.XMonotoneClass, miner.RectilinearConvexClass},
		GridSide: 16,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Pairs != 1 || len(out.Rules) == 0 || len(out.Regions) != 2 {
		t.Errorf("targeted sweep: %d pairs, %d rules, %d regions; want 1 pair, rules, and both region classes",
			out.Pairs, len(out.Rules), len(out.Regions))
	}
}

// writeClustered writes n tuples in the given format: X drives a
// planted (X in band) => (C=yes) association so MineAll finds rules, T
// is an uncorrelated target, and F is a Boolean that is true only in
// the middle fifth of the row order — the clustered column whose zone
// maps make pruning possible. Both numerics are integer-valued, which
// is what the v3 delta bit-packer compresses.
func writeClustered(t *testing.T, path string, n, groupRows, format int, seed int64) *relation.DiskRelation {
	t.Helper()
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "F", Kind: relation.Boolean},
		{Name: "C", Kind: relation.Boolean},
	}
	var dw *relation.DiskWriter
	var err error
	if format == relation.DiskFormatV3 {
		dw, err = relation.NewDiskWriterV3(path, schema, groupRows)
	} else {
		dw, err = relation.NewDiskWriterV2(path, schema, groupRows)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	lo, hi := 2*n/5, 3*n/5
	for i := 0; i < n; i++ {
		x := math.Round(rng.NormFloat64() * 1000)
		p := 0.1
		if x >= -300 && x <= 300 {
			p = 0.7
		}
		if err := dw.Append(
			[]float64{x, math.Round(rng.Float64() * 100)},
			[]bool{i >= lo && i < hi, rng.Float64() < p},
		); err != nil {
			dw.Discard()
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
	t.Cleanup(func() { rel.Close() })
	return rel
}

// TestV3ScanWins pins what the compressed v3 format buys over v2 on a
// clustered data set: a smaller file, fewer counted bytes on an
// unfiltered MineAll with identical rules, fewer bytes on a filtered
// session query over the clustered Boolean with identical answers, and
// a filtered byte ratio that beats the unfiltered one (zone maps prune
// more than compression alone saves).
func TestV3ScanWins(t *testing.T) {
	const n, groupRows, seed = 40000, 1 << 12, 1
	dir := t.TempDir()
	v2Path, v3Path := filepath.Join(dir, "clustered_v2.opr"), filepath.Join(dir, "clustered_v3.opr")
	v2 := writeClustered(t, v2Path, n, groupRows, relation.DiskFormatV2, seed)
	v3 := writeClustered(t, v3Path, n, groupRows, relation.DiskFormatV3, seed)
	fileSize := func(path string) int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if s2, s3 := fileSize(v2Path), fileSize(v3Path); s3 >= s2 {
		t.Errorf("v3 file is %d bytes, v2 is %d; compression saved nothing", s3, s2)
	}

	cfg := miner.Config{Buckets: 500, Seed: seed}
	mineAll := func(dr *relation.DiskRelation) (*miner.Result, int64) {
		dr.ResetBytesRead()
		r, err := miner.MineAll(dr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, dr.BytesRead()
	}
	r2, unf2 := mineAll(v2)
	r3, unf3 := mineAll(v3)
	if len(r2.Rules) == 0 {
		t.Fatal("no rules mined; the comparison is vacuous")
	}
	if !reflect.DeepEqual(r2.Rules, r3.Rules) {
		t.Errorf("MineAll rules differ between v2 and v3")
	}
	if unf3 >= unf2 {
		t.Errorf("unfiltered v3 scan read %d bytes, v2 read %d", unf3, unf2)
	}

	// The filter conditions on the clustered F: only the middle fifth
	// of the block groups can contain matching rows.
	filtered := func(dr *relation.DiskRelation) ([]miner.Answer, int64) {
		s, err := miner.NewSession(dr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dr.ResetBytesRead()
		answers, err := s.ExecuteBatch([]miner.Query{{
			Op: miner.OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true,
			Conditions: []miner.Condition{{Attr: "F", Value: true}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return answers, dr.BytesRead()
	}
	a2, fil2 := filtered(v2)
	a3, fil3 := filtered(v3)
	if len(a2) != 1 || a2[0].Err != nil || len(a2[0].Rules) == 0 {
		t.Fatalf("filtered query on v2 mined nothing: %+v", a2)
	}
	if len(a3) != 1 || a3[0].Err != nil || !reflect.DeepEqual(a2[0].Rules, a3[0].Rules) {
		t.Errorf("filtered answers differ between v2 and v3")
	}
	if fil3 >= fil2 {
		t.Errorf("filtered v3 scan read %d bytes, v2 read %d", fil3, fil2)
	}
	unf := float64(unf2) / float64(unf3)
	fil := float64(fil2) / float64(fil3)
	if fil <= unf {
		t.Errorf("filtered byte ratio %.2fx does not beat unfiltered %.2fx; zone maps pruned nothing", fil, unf)
	}
}
