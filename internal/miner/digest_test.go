package miner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
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
// SHA-256 on every backend (see checkDigests). Any change to sampling,
// bucketing, counting, the float sums' order or extraction moves a
// digest.
func TestAnswerDigests(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 100, Seed: 11, ExactDomainLimit: 100}
	checkDigests(t, bank, 6000, 29, cfg, allBackends, digestQueries, digestWant)
}

// locateSource is the locate-stress relation: the column shapes whose
// sampled cuts are hardest to locate. Skew is LogNormal(8, 1.2), whose
// equi-depth cuts crowd the low end of their span; Int73 holds the 73
// integers 18..90, so 1000 buckets repeat every cut many times; Centred
// is a zero-centred normal with −0, +0 and subnormals mixed in. Every
// numeric column has NaN, +Inf and −Inf holes, so cuts can be infinite.
// Obj leans on Skew and Int73 so every rule kind has something to find.
type locateSource struct{}

func (locateSource) Schema() relation.Schema {
	return relation.Schema{
		{Name: "Skew", Kind: relation.Numeric},
		{Name: "Int73", Kind: relation.Numeric},
		{Name: "Centred", Kind: relation.Numeric},
		{Name: "Obj", Kind: relation.Boolean},
		{Name: "Cond", Kind: relation.Boolean},
	}
}

func (locateSource) Row(rng *rand.Rand, nums []float64, bools []bool) ([]float64, []bool) {
	skew := math.Exp(8 + 1.2*rng.NormFloat64())
	age := float64(18 + rng.Intn(73))
	centred := rng.NormFloat64()
	switch rng.Intn(20) {
	case 0:
		centred = math.Copysign(0, -1)
	case 1:
		centred = 0
	case 2:
		centred = math.SmallestNonzeroFloat64 * float64(rng.Intn(9)-4)
	}
	p := 0.3
	if skew > 5000 && skew <= 20000 {
		p += 0.4
	}
	if age > 40 && age <= 55 {
		p += 0.2
	}
	vals := [3]float64{skew, age, centred}
	for i := range vals {
		switch rng.Intn(50) {
		case 0:
			vals[i] = math.NaN()
		case 1:
			vals[i] = math.Inf(1)
		case 2:
			vals[i] = math.Inf(-1)
		}
	}
	nums = append(nums, vals[:]...)
	bools = append(bools, rng.Float64() < p, rng.Float64() < 0.5)
	return nums, bools
}

// locateQueries is the locate-stress batch: 1-D rules of all three
// kinds over every driver with negations, a conditioned rule on the
// lognormal driver, top-k over the duplicate-cut driver, and a 2-D
// query over the lognormal and signed-zero drivers with both region
// classes.
var locateQueries = []Query{
	{Op: OpRules, Kinds: []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain}, Negations: true},
	{Op: OpRules, Numeric: "Skew", Objective: "Obj", ObjectiveValue: true,
		Conditions: []Condition{{Attr: "Cond", Value: true}}},
	{Op: OpTopK, Numeric: "Int73", Objective: "Obj", ObjectiveValue: true, K: 3},
	{Op: OpRules2D, Numeric: "Skew", NumericB: "Centred", Objective: "Obj", ObjectiveValue: true, GridSide: 16,
		Kinds:   []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain},
		Regions: []RegionClass{XMonotoneClass, RectilinearConvexClass}},
}

// locateWant holds the committed SHA-256 of each locateQueries answer.
var locateWant = []string{
	"3d85e82f1de244c459e9bb6ef645cd5193c33abccb05f10f9748fce784b84423",
	"796fb60ea54345e6d35adb424b1829c5717da53617560dbc4a6467f6f599d4b3",
	"5fe5634b0a8dda445376eb3f3603c4c9f962b9cc69e36c0110dd81b9daab6e60",
	"bd1bb16eed10aad0ed18a1c4c1e712bf6db17e132b7730ab1726fd4f5eec6f5f",
}

// TestAnswerDigestsLocateStress pins the locate-stress batch the same
// way at M = 1000 with every column sampled (ExactDomainLimit 0): the
// lognormal, duplicate-cut, signed-zero, subnormal and infinite cuts
// all reach the bucket locate of the counting pass.
func TestAnswerDigestsLocateStress(t *testing.T) {
	cfg := Config{Buckets: 1000, Seed: 13}
	checkDigests(t, locateSource{}, 6000, 31, cfg, allBackends, locateQueries, locateWant)
}

// allBackends are the backends the bank and locate-stress batches run
// on: memory, a v1 file, a v2 file, a v3 file, 4 v2 shards, 4 shards
// mixing v2 and v3, 4 shards mixing v1, v2 and v3, and a healthy
// FaultRelation over a v3 file.
var allBackends = []string{"memory", "v1", "v2", "v3", "sharded-v2", "sharded-mixed", "sharded-v1mixed", "fault-v3"}

// digestBackend builds the named backend over n rows of src: one of
// allBackends, or "sharded-v3" (3 v3 shards).
func digestBackend(t *testing.T, name string, src datagen.RowSource, n int, seed int64) relation.Relation {
	t.Helper()
	switch name {
	case "memory":
		return datagen.MustMaterialize(src, n, seed)
	case "v1":
		return diskOfFormat(t, src, n, seed, relation.DiskFormatV1)
	case "v2":
		return diskOfFormat(t, src, n, seed, relation.DiskFormatV2)
	case "v3":
		return diskOfFormat(t, src, n, seed, relation.DiskFormatV3)
	case "sharded-v2":
		return shardedOf(t, src, n, seed, 4)
	case "sharded-v3":
		path := filepath.Join(t.TempDir(), "v3.oprs")
		if err := datagen.WriteSharded(path, src, n, seed, 3, relation.DiskFormatV3); err != nil {
			t.Fatal(err)
		}
		return openSharded(t, path)
	case "sharded-mixed":
		mixed := filepath.Join(t.TempDir(), "mixed.oprs")
		if err := datagen.WriteSharded(mixed, src, n/2, seed, 2, relation.DiskFormatV2); err != nil {
			t.Fatal(err)
		}
		tail, err := datagen.MaterializeRange(src, seed, n/2, n/2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := relation.AppendToSharded(mixed, tail, relation.AppendOptions{RowsPerShard: n / 4, Format: relation.DiskFormatV3}); err != nil {
			t.Fatal(err)
		}
		return openSharded(t, mixed)
	case "sharded-v1mixed":
		// Shards v1, v2, v3, v2 of n/4 rows each.
		path := filepath.Join(t.TempDir(), "v1mixed.oprs")
		if err := datagen.WriteSharded(path, src, n/4, seed, 1, relation.DiskFormatV1); err != nil {
			t.Fatal(err)
		}
		for i, format := range []int{relation.DiskFormatV2, relation.DiskFormatV3, relation.DiskFormatV2} {
			tail, err := datagen.MaterializeRange(src, seed, (i+1)*n/4, n/4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := relation.AppendToSharded(path, tail, relation.AppendOptions{Format: format}); err != nil {
				t.Fatal(err)
			}
		}
		return openSharded(t, path)
	case "fault-v3":
		return relation.NewFaultRelation(diskOfFormat(t, src, n, seed, relation.DiskFormatV3), relation.FaultConfig{})
	}
	t.Fatalf("unknown backend %q", name)
	return nil
}

// openSharded opens a shard manifest for the rest of the test.
func openSharded(t *testing.T, path string) *relation.ShardedRelation {
	t.Helper()
	sr, err := relation.OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	return sr
}

// rethreshold returns q at seeded other thresholds — minimum support
// and confidence where q's op reads them, the support-range floor
// scaled around its original, another K — so it needs the statistics
// q did and nothing else.
func rethreshold(q Query, rng *rand.Rand) Query {
	avg := q.Op == OpAverage || q.Op == OpSupportRange
	if q.Op != OpSupportRange {
		q.MinSupport = 0.02 + 0.2*rng.Float64()
	}
	if !avg {
		q.MinConfidence = 0.3 + 0.5*rng.Float64()
	}
	switch q.Op {
	case OpSupportRange:
		q.MinAverage *= 0.8 + 0.4*rng.Float64()
	case OpTopK:
		q.K = 1 + rng.Intn(5)
	}
	return q
}

// retailQueries is the retail digest batch over the basket generator
// (numeric Amount and ItemCount, five item Booleans): 1-D rules of all
// three kinds over every driver with negations, top-k, both average
// operators and a conjunctive rule. With ExactDomainLimit 100,
// ItemCount is bucketed by its exact domain and Amount by samples.
var retailQueries = []Query{
	{Op: OpRules, Kinds: []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain}, Negations: true},
	{Op: OpTopK, Numeric: "Amount", Objective: "Wine", ObjectiveValue: true, K: 3},
	{Op: OpAverage, Numeric: "Amount", Target: "ItemCount", MinSupport: 0.1},
	{Op: OpSupportRange, Numeric: "ItemCount", Target: "Amount", MinAverage: 50},
	{Op: OpConjunctive, Numeric: "Amount",
		Objectives: []Condition{{Attr: "Wine", Value: true}},
		Conditions: []Condition{{Attr: "Pizza", Value: true}}},
}

// retailWant holds the committed SHA-256 of each retailQueries answer.
var retailWant = []string{
	"8d658e0199da9f162e946bb2267e5dffb083f6490db65803b50eb9b37f439408",
	"2d34b15b8fe54293cf7a459514c63e68620e59873ca09447fd08c3b0019bceb0",
	"122d94c6e9e92bc7191a096dfad03299510c2d41afd4a849345eb51026196ebd",
	"c9c6e364c939fd039fcfc451cdd0fcf3026f1c6c0801112c38b76e0432a37d8c",
	"1ea3306d3ee621345fab068e0534eabc94bf3a627cec5740daaa28266853c418",
}

// TestAnswerDigestsRetail pins the retail batch over memory, a v3 file
// and 3 v3 shards.
func TestAnswerDigestsRetail(t *testing.T) {
	retail, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 100, Seed: 17, ExactDomainLimit: 100}
	checkDigests(t, retail, 6000, 41, cfg, []string{"memory", "v3", "sharded-v3"}, retailQueries, retailWant)
}

// checkDigests pins every answer of queries over n rows of src to its
// committed SHA-256 in want on each named backend (see digestBackend)
// at PEs = Workers = 1, 2 and 4, both when one session answers the
// whole batch and when each query runs alone in a fresh session. It
// then re-thresholds each query (rethreshold, seeded by its position)
// on the batch session, whose cache already holds every statistic:
// each warm answer must come without a cache miss and equal a fresh
// session's answer to the same query. The digests hold on amd64, whose
// Go compiler never fuses a multiply and an add into one rounding;
// other architectures may.
func checkDigests(t *testing.T, src datagen.RowSource, n int, seed int64, base Config,
	backends []string, queries []Query, want []string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are committed for amd64, where float arithmetic is never fused")
	}
	warmQueries := make([]Query, len(queries))
	for i, q := range queries {
		warmQueries[i] = rethreshold(q, rand.New(rand.NewSource(seed+int64(i))))
	}
	var fresh []Answer // fresh sessions' answers to warmQueries
	got := make([]string, len(queries))
	for _, name := range backends {
		rel := digestBackend(t, name, src, n, seed)
		for _, par := range []int{1, 2, 4} {
			cfg := base
			cfg.PEs, cfg.Workers = par, par
			session := func() *Session {
				t.Helper()
				s, err := NewSession(rel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			answer := func(s *Session, queries []Query) []Answer {
				t.Helper()
				answers, err := s.ExecuteBatch(queries)
				if err != nil {
					t.Fatal(err)
				}
				return answers
			}
			warm := session()
			batch := answer(warm, queries)
			for i, q := range queries {
				for _, run := range []struct {
					mode string
					a    Answer
				}{{"batch", batch[i]}, {"one-shot", answer(session(), []Query{q})[0]}} {
					mode, a := run.mode, run.a
					if a.Err != nil {
						t.Fatalf("%s/par=%d/%s: query %d: %v", name, par, mode, i, a.Err)
					}
					if len(a.Rules)+len(a.Rules2D)+len(a.Regions) == 0 && a.Range == nil {
						t.Fatalf("%s/par=%d/%s: query %d mined nothing", name, par, mode, i)
					}
					got[i] = answerDigest(a)
					if got[i] != want[i] {
						t.Errorf("%s/par=%d/%s: query %d (%v) digest %s, want %s", name, par, mode, i, q.Op, got[i], want[i])
					}
				}
			}
			if fresh == nil {
				for _, q := range warmQueries {
					fresh = append(fresh, answer(session(), []Query{q})[0])
				}
			}
			misses := warm.CacheStats().Misses
			for i, q := range warmQueries {
				a := answer(warm, []Query{q})[0]
				if fmt.Sprint(a.Err) != fmt.Sprint(fresh[i].Err) || answerDigest(a) != answerDigest(fresh[i]) {
					t.Errorf("%s/par=%d/warm: query %d (%+v) answers %+v, a fresh session %+v", name, par, i, q, a, fresh[i])
				}
			}
			if m := warm.CacheStats().Misses; m != misses {
				t.Errorf("%s/par=%d/warm: %d cache misses re-thresholding the batch, want 0", name, par, m-misses)
			}
		}
	}
	if t.Failed() {
		t.Logf("digests of the last run: %q", got)
	}
}

// appendQueries is the append-then-query digest batch: all-driver 1-D
// rules, both average operators (float target sums) and one 2-D pair
// with both region classes.
var appendQueries = []Query{
	digestQueries[0],
	digestQueries[5],
	digestQueries[6],
	{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan", ObjectiveValue: true, GridSide: 16,
		Regions: []RegionClass{XMonotoneClass, RectilinearConvexClass}},
}

// appendWant holds the committed SHA-256 of each appendQueries answer,
// first after the within-budget append, then after the over-budget one.
var appendWant = [2][]string{
	{
		"153a6e0967ebe436d190fe480c987b1e4db874ca9c6f3f22aae45ba91d447c78",
		"2865a59b5212b3b8a2cc1959d198ff575f812203735c2f7b3f0cb7eb0346c716",
		"5daa9bb0def1528ebc0734f4828951233347effcd6962c3f44de85be219a2541",
		"1c81dc1b9eef496516622d7214b2cadf3495550504cc2289d93f2f74613a9a27",
	},
	{
		"9ba582f90cbe87ad28322d6c8f56cd69b1ad514db8a65e34be554c742d5b5bab",
		"14f2aca5c5ec93c8f333820269df36d8c1b66b7a63b7dd84f2d00eaa38b958b1",
		"1cc42741896a5dd93cf369371839008e18bf2dfd55e3806ae6dfd342d2b912b5",
		"bf17d539b279e457700cc33128936f168fb494dda408ba7eb6eddb09d6c940f3",
	},
}

// sumAppendQueries is the ±1e16 append digest batch over sumSource:
// the average operators over both wild targets, whose folded sums only
// match a cold scan's bits when the tail continues the cached sums in
// row order, and 1-D rules over X.
var sumAppendQueries = []Query{
	{Op: OpAverage, Numeric: "X", Target: "T", MinSupport: 0.1},
	{Op: OpAverage, Numeric: "X", Target: "U", MinSupport: 0.05},
	{Op: OpSupportRange, Numeric: "X", Target: "U", MinAverage: 1},
	{Op: OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true},
}

// sumAppendWant holds the committed SHA-256 of each sumAppendQueries
// answer, after the within-budget append and after the over-budget one.
var sumAppendWant = [2][]string{
	{
		"95b140497abe1a6cd44842958447e275700391132a503667a6425c19b6461936",
		"00e1e836b9b8fa5a62cdbf966b9227bcf860a8a3842e446b211f799a7fd3f791",
		"f5078d11bc9849777dc5da6cd8eaab91e2a1658bef7ba0cb5c187473a0823b75",
		"a9134bd4dbe2b3d0069b1a280af141eb4d2b29bb7a800fb98e686a2eda0a88d2",
	},
	{
		"92ba106e5ad18843d98717d6483c2df756ce0f50236bb92961c99e7b5fa3a7a5",
		"23f41d0021dcb17fb87467b9a372420f4657116ffde2cb022228ef37cae2d864",
		"1286601f8338d6ff579dff1db4aaa588b9dded222fb47bbcae1fe79a6fb2b5cd",
		"1e91b81dbaa9e4472d2019d35483e96fe5715c73d60b514c71bd1fdb3cdd3342",
	},
}

// TestAnswerDigestsAfterAppend pins the answers of a warm session that
// grows twice: first inside the §3.4 bucket-error budget (the refresh
// folds every cached statistic), then past it (the cached boundaries
// and everything counted over them give way to the cold path), each
// append followed directly by the batch. It runs the bank batch
// (appendQueries) and the ±1e16 batch (sumAppendQueries, whose folded
// target sums and their prepared rows must follow each append) over
// memory (Session.Append) and 3-shard v2 and v3 relations
// (AppendToSharded, then RefreshFromStorage) at PEs = Workers = 1, 2
// and 4; every run must hit the same committed digests.
func TestAnswerDigestsAfterAppend(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are committed for amd64, where float arithmetic is never fused")
	}
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkAppendDigests(t, bank, 37, appendQueries, appendWant)
	checkAppendDigests(t, sumSource{}, 43, sumAppendQueries, sumAppendWant)
}

// checkAppendDigests runs TestAnswerDigestsAfterAppend's two appends
// over src and pins queries' answers after each to want.
func checkAppendDigests(t *testing.T, src datagen.RowSource, seed int64, queries []Query, want [2][]string) {
	t.Helper()
	const base, small, bulk = 4000, 100, 800
	full, err := datagen.Materialize(src, base+small+bulk, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 100, Seed: 11, ExactDomainLimit: 100}
	got := [2][]string{make([]string, len(queries)), make([]string, len(queries))}
	for _, format := range []int{0, relation.DiskFormatV2, relation.DiskFormatV3} {
		for _, par := range []int{1, 2, 4} {
			name := fmt.Sprintf("memory/par=%d", par)
			var rel relation.Relation
			var manifest string
			if format == 0 {
				rel = datagen.MustMaterialize(src, base, seed)
			} else {
				name = fmt.Sprintf("sharded-v%d/par=%d", format, par)
				manifest = filepath.Join(t.TempDir(), "rel.oprs")
				if err := datagen.WriteSharded(manifest, src, base, seed, 3, format); err != nil {
					t.Fatal(err)
				}
				rel = openSharded(t, manifest)
			}
			c := cfg
			c.PEs, c.Workers = par, par
			sess, err := NewSession(rel, c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.ExecuteBatch(queries); err != nil {
				t.Fatal(err)
			}
			start := base
			for step, n := range []int{small, bulk} {
				var ds DeltaStats
				if format == 0 {
					nums, bools := sliceRows(t, full, start, start+n)
					ds, err = sess.Append(nums, bools)
				} else {
					if _, err = relation.AppendToSharded(manifest, tailRelation(t, full, start, start+n),
						relation.AppendOptions{Format: format}); err != nil {
						t.Fatal(err)
					}
					ds, err = sess.RefreshFromStorage()
				}
				if err != nil {
					t.Fatal(err)
				}
				start += n
				if tripped := ds.Resamples > 0; tripped != (step == 1) {
					t.Fatalf("%s: append %d tripped the budget: %v", name, step, tripped)
				}
				answers, err := sess.ExecuteBatch(queries)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range answers {
					if a.Err != nil {
						t.Fatalf("%s: append %d: query %d: %v", name, step, i, a.Err)
					}
					got[step][i] = answerDigest(a)
					if got[step][i] != want[step][i] {
						t.Errorf("%s: append %d: query %d (%v) digest %s, want %s",
							name, step, i, a.Query.Op, got[step][i], want[step][i])
					}
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("digests of the last run: %q", got)
	}
}
