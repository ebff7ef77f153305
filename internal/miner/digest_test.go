package miner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// digestQueries is the answer-digest batch: 1-D rules of all three
// kinds over every driver and objective with negations, a conditioned
// rule and a negated objective, top-k, conjunctive, both average
// operators, and 2-D rules of all three kinds with both region classes
// over every pair. With ExactDomainLimit 100, Age (73 distinct values)
// is bucketed by its exact domain and Balance and ServiceYears by
// samples.
var digestQueries = []Query{
	{Op: OpRules, Kinds: []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain}, Negations: true},
	{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
		Conditions: []Condition{{Attr: "AutoWithdraw", Value: true}}},
	{Op: OpRules, Numeric: "Age", Objective: "Mortgage", ObjectiveValue: false},
	{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 3},
	{Op: OpConjunctive, Numeric: "Age",
		Objectives: []Condition{{Attr: "CardLoan", Value: true}},
		Conditions: []Condition{{Attr: "Mortgage", Value: true}}},
	{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
	{Op: OpSupportRange, Numeric: "ServiceYears", Target: "Balance", MinAverage: 9000},
	{Op: OpRules2D, Objective: "CardLoan", ObjectiveValue: true, GridSide: 16,
		Kinds:   []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain},
		Regions: []RegionClass{XMonotoneClass, RectilinearConvexClass}},
}

// digestWant holds the committed SHA-256 of each digestQueries answer.
var digestWant = []string{
	"117acefdc56fb6796c1a1d8637cc7fc5c4c4c830c696fc10d0972e42231bac16",
	"37512cea34ae3049cb41f568356ed2173fc23ed9fb4ec09d65a305a27ebd2d18",
	"5bacb07f29ac9ae34428c1f3a814e1dfe4c3c0a84794ec38084b454502c08f80",
	"a310f2695bffb5161af0b29a52de68be49f763cb6e660e59609e6ac7724d7d73",
	"2c4d60e4c927e14b380e51944aad623226612d22f6002fe0878f2a9358621281",
	"81e49dd7d13eecfe8953e4e05e793733a5ad45b30441bc10c3e692205e04e3ce",
	"fce83bb4daa2bfff21f2e852dc9fca53f1cb0b1027596deb2101747c09332113",
	"a222ef5832c4fbfe016a78dbee13956e1abc380b2c0b37a3c533461d808ff356",
}

// answerDigest hashes the canonical bytes of a (bitWalk), each leaf
// length-prefixed so the encoding is unambiguous.
func answerDigest(a Answer) string {
	h := sha256.New()
	bitWalk(reflect.ValueOf(a), "Answer", func(_ string, bits []byte) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(bits))))
		h.Write(bits)
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnswerDigests pins every answer of digestQueries to a committed
// SHA-256 on every backend — memory, a v2 file, a v3 file, 4 v2 shards
// and 4 shards mixing v2 and v3 — at PEs = Workers = 1, 2 and 4, both
// when one session answers the whole batch and when each query runs
// alone in a fresh session. Any change to sampling, bucketing,
// counting, the float sums' order or extraction moves a digest. The
// digests hold on amd64, whose Go compiler never fuses a multiply and
// an add into one rounding; other architectures may.
func TestAnswerDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are committed for amd64, where float arithmetic is never fused")
	}
	const n, seed = 6000, 29
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mixed := filepath.Join(t.TempDir(), "mixed.oprs")
	if err := datagen.WriteSharded(mixed, bank, n/2, seed, 2, relation.DiskFormatV2); err != nil {
		t.Fatal(err)
	}
	tail, err := datagen.MaterializeRange(bank, seed, n/2, n/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relation.AppendToSharded(mixed, tail, relation.AppendOptions{RowsPerShard: n / 4, Format: relation.DiskFormatV3}); err != nil {
		t.Fatal(err)
	}
	mixedRel, err := relation.OpenSharded(mixed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mixedRel.Close() })
	backends := []struct {
		name string
		rel  relation.Relation
	}{
		{"memory", datagen.MustMaterialize(bank, n, seed)},
		{"v2", diskOfFormat(t, bank, n, seed, relation.DiskFormatV2)},
		{"v3", diskOfFormat(t, bank, n, seed, relation.DiskFormatV3)},
		{"sharded-v2", shardedOf(t, bank, n, seed, 4)},
		{"sharded-mixed", mixedRel},
	}
	got := make([]string, len(digestQueries))
	for _, b := range backends {
		for _, par := range []int{1, 2, 4} {
			cfg := Config{Buckets: 100, Seed: 11, PEs: par, Workers: par, ExactDomainLimit: 100}
			answer := func(queries []Query) []Answer {
				t.Helper()
				s, err := NewSession(b.rel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				answers, err := s.ExecuteBatch(queries)
				if err != nil {
					t.Fatal(err)
				}
				return answers
			}
			batch := answer(digestQueries)
			for i, q := range digestQueries {
				for _, run := range []struct {
					mode string
					a    Answer
				}{{"batch", batch[i]}, {"one-shot", answer([]Query{q})[0]}} {
					mode, a := run.mode, run.a
					if a.Err != nil {
						t.Fatalf("%s/par=%d/%s: query %d: %v", b.name, par, mode, i, a.Err)
					}
					if len(a.Rules)+len(a.Rules2D)+len(a.Regions) == 0 && a.Range == nil {
						t.Fatalf("%s/par=%d/%s: query %d mined nothing", b.name, par, mode, i)
					}
					got[i] = answerDigest(a)
					if got[i] != digestWant[i] {
						t.Errorf("%s/par=%d/%s: query %d (%v) digest %s, want %s", b.name, par, mode, i, q.Op, got[i], digestWant[i])
					}
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("digests of the last run: %q", got)
	}
}
