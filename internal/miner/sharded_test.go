package miner

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// shardedOf materializes the same deterministic tuple stream diskOf
// and Materialize produce, but split across the given number of shard
// files, so sharded differential tests compare bit-identical data.
func shardedOf(t *testing.T, src datagen.RowSource, n int, seed int64, shards int) *relation.ShardedRelation {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rel.oprs")
	if err := datagen.WriteSharded(path, src, n, seed, shards, 0); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	return sr
}

// TestMineAllShardedMatchesSingleFile pins the sharded backend's core
// contract: MineAll over a sharded relation is rule-for-rule identical
// to MineAll over the equivalent single-file relation — for bank and
// retail data, serially and with the parallel counting engine planning
// chunks across shard boundaries (PEs > 1).
// It also reads the same counted bytes, plus at most one byte per
// Boolean attribute per shard: each shard rounds every Boolean column
// up to whole bytes.
func TestMineAllShardedMatchesSingleFile(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	retail, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	gens := []struct {
		name string
		gen  datagen.RowSource
	}{{"bank", bank}, {"retail", retail}}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Buckets: 120, Seed: 7}},
		{"negations+gain", Config{Buckets: 80, Seed: 3, MineNegations: true, MineGain: true}},
		{"exact-domains", Config{Buckets: 60, Seed: 11, ExactDomainLimit: 100}},
		{"parallel-pes", Config{Buckets: 90, Seed: 5, PEs: 4}},
	}
	const shards = 3
	for _, g := range gens {
		single := diskOf(t, g.gen, 8000, 42)
		sharded := shardedOf(t, g.gen, 8000, 42, shards)
		pad := int64(len(single.Schema().BooleanIndices()) * shards)
		for _, c := range cfgs {
			single.ResetBytesRead()
			want, err := MineAll(single, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: single-file: %v", g.name, c.name, err)
			}
			if len(want.Rules) == 0 {
				t.Fatalf("%s/%s: degenerate differential test, no rules mined", g.name, c.name)
			}
			sharded.ResetBytesRead()
			got, err := MineAll(sharded, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: sharded: %v", g.name, c.name, err)
			}
			sameRules(t, g.name+"/"+c.name, got, want)
			if d := sharded.BytesRead() - single.BytesRead(); d < 0 || d > pad {
				t.Errorf("%s/%s: sharded read %d bytes, single file %d (allowed padding %d)",
					g.name, c.name, sharded.BytesRead(), single.BytesRead(), pad)
			}
		}
	}
}

// TestMineAll2DShardedMatchesSingleFile is the 2-D counterpart: the
// fused all-pairs engine (rectangles of every kind plus both region
// classes) over a sharded relation must reproduce the single-file
// results exactly, including when its counting scan is segmented
// across shard boundaries.
func TestMineAll2DShardedMatchesSingleFile(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	single := diskOf(t, bank, 6000, 11)
	sharded := shardedOf(t, bank, 6000, 11, 4)
	s := single.Schema()
	obj := s[s.BooleanIndices()[0]].Name
	opt := Options2D{
		Objective: obj, ObjectiveValue: true, GridSide: 16,
		Kinds:   []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain},
		Regions: []RegionClass{XMonotoneClass, RectilinearConvexClass},
	}
	for _, cfg := range []Config{
		{MinSupport: 0.02, Seed: 3},
		{MinSupport: 0.02, Seed: 3, PEs: 4},
	} {
		want, err := MineAll2D(single, opt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rules) == 0 || len(want.Regions) == 0 {
			t.Fatalf("degenerate differential test: %d rules, %d regions", len(want.Rules), len(want.Regions))
		}
		got, err := MineAll2D(sharded, opt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rules, want.Rules) {
			t.Errorf("PEs=%d: sharded 2-D rectangle rules differ from single-file", cfg.PEs)
		}
		if !reflect.DeepEqual(got.Regions, want.Regions) {
			t.Errorf("PEs=%d: sharded 2-D region rules differ from single-file", cfg.PEs)
		}
	}
}

// TestMineAllShardedTwoScans holds the two-pass invariant across
// shards: sharding the storage must not change the passes the fused
// pipeline issues against the logical relation.
func TestMineAllShardedTwoScans(t *testing.T) {
	shape, err := datagen.NewPerfShape(4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 5} {
		sharded := shardedOf(t, shape, 5000, 9, shards)
		for _, pes := range []int{1, 4} {
			counting := &relation.CountingRelation{R: sharded}
			res, err := MineAll(counting, Config{Buckets: 100, Seed: 1, PEs: pes})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rules) == 0 {
				t.Errorf("shards=%d: no rules mined", shards)
			}
			requireTwoPasses(t, fmt.Sprintf("shards=%d/PEs=%d", shards, pes), counting, 4, pes, sharded.NumTuples())
		}
	}
}
