package miner

import (
	"math/rand"
	"path/filepath"
	"testing"

	"optrule/internal/relation"
)

// Clustering differentials. ClusterBy reorders rows, and the sampling
// pass consumes rows in storage order — so clustered-vs-unclustered
// identity can only be pinned where boundaries do not depend on row
// order: exact domains (finest buckets are built from the distinct
// value SET). Under that regime the whole pipeline is row-order
// invariant, and mined rules must be DeepEqual-identical across the
// in-memory relation, the unclustered v3 file, the clustered v3 file,
// and the clustered sharded-v3 layout.

// clusterFixtures builds the same 4-attribute tuple multiset (two
// small-domain numerics, two Booleans) as an in-memory relation, an
// unclustered v3 file, a clustered v3 file (cluster column Score), and
// a sharded layout over the clustered file.
func clusterFixtures(t *testing.T, n int) (mem *relation.MemoryRelation, plain, clustered *relation.DiskRelation, sharded *relation.ShardedRelation) {
	t.Helper()
	schema := relation.Schema{
		{Name: "Score", Kind: relation.Numeric},
		{Name: "Grade", Kind: relation.Numeric},
		{Name: "Active", Kind: relation.Boolean},
		{Name: "Premium", Kind: relation.Boolean},
	}
	mem = relation.MustNewMemoryRelation(schema)
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "plain.opr")
	dw, err := relation.NewDiskWriterV3(plainPath, schema, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		score := float64(rng.Intn(24))       // 24 distinct values
		grade := float64(rng.Intn(8)) * 0.25 // 8 distinct values
		active := rng.Intn(3) > 0
		premium := score >= 16 && rng.Intn(4) > 0 // plant a minable association
		nums := []float64{score, grade}
		bools := []bool{active, premium}
		mem.MustAppend(nums, bools)
		if err := dw.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	plain, err = relation.OpenDisk(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })

	clusteredPath := filepath.Join(dir, "clustered.opr")
	if err := relation.ConvertFileClustered(plain, clusteredPath, relation.DiskFormatV3, 0); err != nil {
		t.Fatal(err)
	}
	clustered, err = relation.OpenDisk(clusteredPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clustered.Close() })

	manifest := filepath.Join(dir, "clustered.oprs")
	if err := relation.ConvertToSharded(clustered, manifest, 3, relation.DiskFormatV3); err != nil {
		t.Fatal(err)
	}
	sharded, err = relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	return mem, plain, clustered, sharded
}

// TestMineAllClusteredRuleIdentity pins clustered-vs-unclustered rule
// identity under exact domains, across every storage backend.
func TestMineAllClusteredRuleIdentity(t *testing.T) {
	mem, plain, clustered, sharded := clusterFixtures(t, 6000)
	cfg := Config{Buckets: 50, Seed: 13, ExactDomainLimit: 64, MineNegations: true}
	want, err := MineAll(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rules) == 0 {
		t.Fatal("degenerate differential test: no rules mined")
	}
	backends := []struct {
		name string
		rel  relation.Relation
	}{
		{"v3-unclustered", plain},
		{"v3-clustered", clustered},
		{"sharded-v3-clustered", sharded},
	}
	for _, b := range backends {
		got, err := MineAll(b.rel, cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		sameRules(t, b.name, got, want)
	}
}

// TestMineAllClusteredSchedulerIdentity pins the dynamic scheduler's
// determinism contract end to end: on clustered v3 (and sharded-v3)
// storage, where PlanScanChunks produces cost-skewed chunks claimed by
// racing workers, mined rules must be DeepEqual-identical across
// serial and every worker count — steal order must not leak into any
// statistic. Runs under -race in CI.
func TestMineAllClusteredSchedulerIdentity(t *testing.T) {
	_, _, clustered, sharded := clusterFixtures(t, 6000)
	cfg := Config{Buckets: 50, Seed: 13, ExactDomainLimit: 64, MineGain: true}
	want, err := MineAll(clustered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rules) == 0 {
		t.Fatal("degenerate differential test: no rules mined")
	}
	for _, backend := range []struct {
		name string
		rel  relation.Relation
	}{{"v3", clustered}, {"sharded", sharded}} {
		for _, pes := range []int{1, 2, 4, 8} {
			pcfg := cfg
			pcfg.PEs = pes
			got, err := MineAll(backend.rel, pcfg)
			if err != nil {
				t.Fatalf("%s/pes=%d: %v", backend.name, pes, err)
			}
			sameRules(t, backend.name, got, want)
		}
	}
}

// TestMineAllClusteredTwoScans holds the exactly-two-scans invariant
// on clustered inputs: a clustered layout changes WHERE the bytes live,
// not how many passes the fused pipeline issues.
func TestMineAllClusteredTwoScans(t *testing.T) {
	_, _, clustered, _ := clusterFixtures(t, 5000)
	counting := &relation.CountingRelation{R: clustered}
	res, err := MineAll(counting, Config{Buckets: 40, Seed: 3, ExactDomainLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Error("no rules mined on the clustered relation")
	}
	if counting.Scans != 2 {
		t.Errorf("MineAll issued %d scans over the clustered relation, want exactly 2 (sampling + counting)", counting.Scans)
	}
	if max := int64(2 * clustered.NumTuples()); counting.Rows > max {
		t.Errorf("scans delivered %d rows, want <= %d (two full passes)", counting.Rows, max)
	}
}

// writeBanded writes n tuples to a v3 file, clustered by X when
// cluster is set: X uniform over 200 integers, Y a payload over 500
// non-integer values (too many for the dictionary encoder, so its
// blocks stay raw), B an objective planted on the band, and F true
// exactly when X lies in the band [120, 133]. Clustering by X makes F
// constant-false outside the band's block groups.
func writeBanded(t *testing.T, path string, n int, cluster bool) *relation.DiskRelation {
	t.Helper()
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Boolean},
		{Name: "F", Kind: relation.Boolean},
	}
	dw, err := relation.NewDiskWriterV3(path, schema, 256)
	if err != nil {
		t.Fatal(err)
	}
	if cluster {
		if err := dw.ClusterBy(0); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		x := float64(rng.Intn(200))
		inBand := x >= 120 && x <= 133
		p := 0.15
		if inBand {
			p = 0.75
		}
		y := float64(rng.Intn(500))*0.5 + 0.25
		if err := dw.Append([]float64{x, y}, []bool{rng.Float64() < p, inBand}); err != nil {
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
	t.Cleanup(func() { dr.Close() })
	return dr
}

// TestClusteredFilteredQueryReadsFewerBytes pins what clustering buys
// end to end: on a session whose boundaries are already cached, a
// filtered rules query reads at least 2x fewer physical bytes on the
// file clustered by X than on the shuffled file, with identical
// answers — the zone maps refute F=true for every block group outside
// the band, so those groups never leave the disk.
func TestClusteredFilteredQueryReadsFewerBytes(t *testing.T) {
	dir := t.TempDir()
	shuffled := writeBanded(t, filepath.Join(dir, "shuffled.opr"), 20000, false)
	clustered := writeBanded(t, filepath.Join(dir, "clustered.opr"), 20000, true)
	// Exact domains make the boundaries independent of row order.
	cfg := Config{Buckets: 100, Seed: 1, ExactDomainLimit: 1024}
	warmup := Query{Op: OpRules, Numeric: "Y", Objective: "B", ObjectiveValue: true}
	filtered := warmup
	filtered.Conditions = []Condition{{Attr: "F", Value: true}}
	run := func(dr *relation.DiskRelation) ([]Answer, int64) {
		s, err := NewSession(dr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := s.ExecuteBatch([]Query{warmup})
		if err != nil {
			t.Fatal(err)
		}
		checkAnswers(t, answers)
		dr.ResetBytesRead()
		answers, err = s.ExecuteBatch([]Query{filtered})
		if err != nil {
			t.Fatal(err)
		}
		return answers, dr.BytesRead()
	}
	want, shuffledBytes := run(shuffled)
	got, clusteredBytes := run(clustered)
	if len(want[0].Rules) == 0 {
		t.Fatal("degenerate differential test: no rules mined")
	}
	requireAnswersEqual(t, "clustered vs shuffled", got, want)
	if 2*clusteredBytes > shuffledBytes {
		t.Errorf("clustered filtered query read %d bytes, shuffled %d; want at least 2x fewer",
			clusteredBytes, shuffledBytes)
	}
}
