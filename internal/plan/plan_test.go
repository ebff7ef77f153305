package plan

import (
	"encoding/json"
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

func TestQueryJSONRoundTrip(t *testing.T) {
	q := Query{
		Op:             OpRules2D,
		Numeric:        "Balance",
		NumericB:       "Age",
		Objective:      "CardLoan",
		ObjectiveValue: true,
		Kinds:          []RuleKind{OptimizedSupport, OptimizedGain},
		Regions:        []RegionClass{XMonotoneClass},
		GridSide:       32,
		MinConfidence:  0.7,
	}
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var back Query
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, back) {
		t.Errorf("round trip changed the query:\n%+v\n%+v", q, back)
	}
}

func TestEnumJSONRejectsUnknownNames(t *testing.T) {
	var k RuleKind
	if err := json.Unmarshal([]byte(`"optimized-banana"`), &k); err == nil {
		t.Errorf("unknown rule kind accepted")
	}
	if err := json.Unmarshal([]byte(`7`), &k); err == nil {
		t.Errorf("numeric rule kind accepted")
	}
	var c RegionClass
	if err := json.Unmarshal([]byte(`"rectangle"`), &c); err == nil {
		t.Errorf("rectangle region class accepted (mined via kinds)")
	}
	var o Op
	if err := json.Unmarshal([]byte(`"mine-everything"`), &o); err == nil {
		t.Errorf("unknown op accepted")
	}
}

func TestCanonicalFilter(t *testing.T) {
	a := []bucketing.BoolCond{{Attr: 5, Want: false}, {Attr: 3, Want: true}, {Attr: 5, Want: false}}
	b := []bucketing.BoolCond{{Attr: 3, Want: true}, {Attr: 5, Want: false}}
	ka, ua := canonicalFilter(a)
	kb, ub := canonicalFilter(b)
	if ka != kb {
		t.Errorf("equivalent conjunctions got different keys: %q vs %q", ka, kb)
	}
	if !reflect.DeepEqual(ua, ub) {
		t.Errorf("canonical condition lists differ: %v vs %v", ua, ub)
	}
	if k, u := canonicalFilter(nil); k != "" || u != nil {
		t.Errorf("empty filter not canonicalized to empty key: %q %v", k, u)
	}
	// Contradictory conditions on one attribute are distinct entries,
	// not deduplicated away.
	if k, u := canonicalFilter([]bucketing.BoolCond{{Attr: 2, Want: true}, {Attr: 2, Want: false}}); len(u) != 2 || k == "" {
		t.Errorf("contradiction collapsed: %q %v", k, u)
	}
}

// TestPutBoundsChargesFootprint pins a boundary entry's cache charge to
// the boundaries' own footprint (cuts plus locate table), which a
// 1000-bucket set with a slot table puts above 32 bytes per cut.
func TestPutBoundsChargesFootprint(t *testing.T) {
	cuts := make([]float64, 999)
	for i := range cuts {
		cuts[i] = float64(i)
	}
	b, err := bucketing.NewBoundaries(cuts)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(-1)
	c.PutBounds(BoundKey{Attr: 0, M: b.NumBuckets()}, b, 10)
	if got := c.Stats().Bytes; got != b.SizeBytes() || got < 32*int64(len(cuts)) {
		t.Errorf("bounds entry charged %d bytes; footprint %d, floor %d", got, b.SizeBytes(), 32*len(cuts))
	}
}

func TestLRUCacheEvictionOrder(t *testing.T) {
	c := NewCache(-1) // unbounded for setup
	mk := func(i int) (GroupKey, *Stats1D) {
		return GroupKey{Driver: i, M: 4}, &Stats1D{
			M: 4, U: make([]int, 4),
			V:   map[bucketing.BoolCond][]int{},
			Sum: map[int][]float64{},
		}
	}
	var keys []GroupKey
	var size int64
	for i := 0; i < 4; i++ {
		k, s := mk(i)
		keys = append(keys, k)
		c.Put1D(k, s)
		size = s.sizeBytes()
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, ok := c.Get1D(keys[0]); !ok {
		t.Fatal("warm entry missing")
	}
	c.SetMaxBytes(3 * size)
	if _, ok := c.Get1D(keys[1]); ok {
		t.Errorf("LRU entry survived eviction")
	}
	if _, ok := c.Get1D(keys[0]); !ok {
		t.Errorf("recently used entry evicted")
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Entries != 3 {
		t.Errorf("unexpected cache stats after eviction: %+v", st)
	}
	c.Invalidate()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("invalidate left entries behind: %+v", st)
	}
}

func TestPut1DMergesRows(t *testing.T) {
	c := NewCache(0)
	key := GroupKey{Driver: 1, M: 2}
	obj1 := bucketing.BoolCond{Attr: 3, Want: true}
	obj2 := bucketing.BoolCond{Attr: 3, Want: false}
	first := &Stats1D{M: 2, N: 10, U: []int{4, 6},
		V: map[bucketing.BoolCond][]int{obj1: {1, 2}}, Sum: map[int][]float64{}}
	second := &Stats1D{M: 2, N: 10, U: []int{4, 6},
		V: map[bucketing.BoolCond][]int{obj2: {3, 4}}, Sum: map[int][]float64{}}
	c.Put1D(key, first)
	merged := c.Put1D(key, second)
	if _, ok := merged.V[obj1]; !ok {
		t.Errorf("merge lost the original objective row")
	}
	if _, ok := merged.V[obj2]; !ok {
		t.Errorf("merge dropped the fresh objective row")
	}
	need := &GroupNeed{Key: key, Bools: []bucketing.BoolCond{obj1, obj2}}
	if !merged.Covers(need) {
		t.Errorf("merged entry does not cover the union need")
	}
	// Copy-on-write: the previously published statistics are immutable
	// — concurrent readers of either input must see no new map keys.
	if _, ok := first.V[obj2]; ok {
		t.Errorf("merge mutated the published entry")
	}
	if _, ok := second.V[obj1]; ok {
		t.Errorf("merge mutated the fresh statistic")
	}
	if got, ok := c.Get1D(key); !ok || got != merged {
		t.Errorf("cache does not serve the merged entry")
	}
}

// boundsMissCache serves count groups but never boundaries — the
// state after LRU pressure evicts a BoundKey entry while its covering
// Stats1D survives.
type boundsMissCache struct {
	groups map[GroupKey]*Stats1D
}

func (c *boundsMissCache) GetBounds(BoundKey) (bucketing.Boundaries, bool) {
	return bucketing.Boundaries{}, false
}
func (c *boundsMissCache) PutBounds(BoundKey, bucketing.Boundaries, int) {}
func (c *boundsMissCache) Get1D(k GroupKey) (*Stats1D, bool) {
	s, ok := c.groups[k]
	return s, ok
}
func (c *boundsMissCache) Put1D(k GroupKey, s *Stats1D) *Stats1D { return s }
func (c *boundsMissCache) Get2D(PairKey) (*Stats2D, bool)        { return nil, false }
func (c *boundsMissCache) Put2D(k PairKey, s *Stats2D) *Stats2D  { return s }

// TestRunSkipsBoundsForCoveredGroups pins that a batch whose 1-D
// groups are all cache-covered runs ZERO scans even when the
// boundaries were evicted: 1-D extraction works on counts alone, so
// re-sampling would be pure waste.
func TestRunSkipsBoundsForCoveredGroups(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Boolean},
	})
	for i := 0; i < 100; i++ {
		rel.MustAppend([]float64{float64(i)}, []bool{i%2 == 0})
	}
	counting := &relation.CountingRelation{R: rel}
	key := GroupKey{Driver: 0, M: 10}
	obj := bucketing.BoolCond{Attr: 1, Want: true}
	covered := &Stats1D{
		M: 10, N: 100, Total: 100,
		U:      make([]int, 10),
		MinVal: make([]float64, 10), MaxVal: make([]float64, 10),
		V:   map[bucketing.BoolCond][]int{obj: make([]int, 10)},
		Sum: map[int][]float64{},
	}
	req := &Requirements{
		Groups: map[GroupKey]*GroupNeed{key: {
			Key: key, Driver: 0,
			Bools: []bucketing.BoolCond{obj}, TrackExtremes: true,
		}},
		GroupOrder: []GroupKey{key},
		Pairs:      map[PairKey]*PairNeed{},
	}
	cache := &boundsMissCache{groups: map[GroupKey]*Stats1D{key: covered}}
	set, err := Run(counting, Defaults{Buckets: 10, SampleFactor: 40, Seed: 1}, cache, req)
	if err != nil {
		t.Fatal(err)
	}
	if counting.Scans != 0 {
		t.Errorf("cache-covered batch ran %d scans, want 0 (bounds eviction must not resample)", counting.Scans)
	}
	if set.Groups[key] != covered {
		t.Errorf("working set does not hold the covered statistic")
	}
}
