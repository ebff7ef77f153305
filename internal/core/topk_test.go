package core

import (
	"math/rand"
	"testing"
)

// topKSlopePairs and topKSupportPairs run the top-k loops over (u, v)
// prepared afresh, with a fresh Scratch.
func topKSlopePairs(u []int, v []float64, minSupCount float64, k int) ([]Pair, error) {
	p, err := Prepare(u, v)
	if err != nil {
		return nil, err
	}
	return p.TopKSlopePairs(minSupCount, k, &Scratch{})
}

func topKSupportPairs(u []int, v []float64, theta float64, k int) ([]Pair, error) {
	p, err := Prepare(u, v)
	if err != nil {
		return nil, err
	}
	return p.TopKSupportPairs(theta, k, &Scratch{})
}

func TestTopKSlopePairsTwoClusters(t *testing.T) {
	// Two high-confidence clusters separated by a cold zone.
	u := []int{10, 10, 10, 10, 10, 10, 10}
	v := []float64{1, 9, 9, 0, 8, 8, 1}
	pairs, err := topKSlopePairs(u, v, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) < 2 {
		t.Fatalf("expected at least 2 disjoint clusters, got %d: %v", len(pairs), pairs)
	}
	// First cluster: buckets [1,2] conf 0.9; second: [4,5] conf 0.8.
	if pairs[0].S != 1 || pairs[0].T != 2 {
		t.Errorf("first pair = %+v, want [1,2]", pairs[0])
	}
	if pairs[1].S != 4 || pairs[1].T != 5 {
		t.Errorf("second pair = %+v, want [4,5]", pairs[1])
	}
	// Decreasing confidence.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Conf > pairs[i-1].Conf+1e-12 {
			t.Errorf("pairs not in decreasing confidence: %v", pairs)
		}
	}
}

func TestTopKSupportPairsDisjointAndConfident(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m := 5 + rng.Intn(40)
		u, v := randomBuckets(rng, m, 10)
		theta := 0.4 + 0.4*rng.Float64()
		k := 1 + rng.Intn(5)
		pairs, err := topKSupportPairs(u, v, theta, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) > k {
			t.Fatalf("returned %d > k=%d pairs", len(pairs), k)
		}
		for i, p := range pairs {
			if p.Conf < theta {
				t.Fatalf("trial %d: pair %d not confident: %+v theta=%g", trial, i, p, theta)
			}
			// Support non-increasing.
			if i > 0 && p.Count > pairs[i-1].Count {
				t.Fatalf("trial %d: supports not sorted: %v", trial, pairs)
			}
			// Pairwise disjoint.
			for j := 0; j < i; j++ {
				if p.S <= pairs[j].T && pairs[j].S <= p.T {
					t.Fatalf("trial %d: pairs %d and %d overlap: %v", trial, i, j, pairs)
				}
			}
		}
		// First pair must equal the single-range optimum.
		opt, ok, err := OptimalSupportPair(u, v, theta)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (len(pairs) > 0) {
			t.Fatalf("trial %d: top-k emptiness disagrees with single optimum", trial)
		}
		if ok && pairs[0].Count != opt.Count {
			t.Fatalf("trial %d: first pair support %d != optimal %d", trial, pairs[0].Count, opt.Count)
		}
	}
}

func TestTopKSlopePairsFirstIsGlobalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(30)
		u, v := randomBuckets(rng, m, 8)
		minSup := float64(rng.Intn(30))
		pairs, err := topKSlopePairs(u, v, minSup, 4)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok, err := OptimalSlopePair(u, v, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (len(pairs) > 0) {
			t.Fatalf("trial %d: emptiness disagrees", trial)
		}
		if ok && (pairs[0].Conf != opt.Conf || pairs[0].Count != opt.Count) {
			t.Fatalf("trial %d: first pair %+v != optimum %+v", trial, pairs[0], opt)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	u := []int{10}
	v := []float64{5}
	pairs, err := topKSlopePairs(u, v, 5, 0)
	if err != nil || pairs != nil {
		t.Errorf("k=0 should return nothing: %v %v", pairs, err)
	}
	pairs, err = topKSlopePairs(u, v, 5, 10)
	if err != nil || len(pairs) != 1 {
		t.Errorf("k beyond available ranges should return what exists: %v %v", pairs, err)
	}
	// Nothing qualifies.
	pairs, err = topKSupportPairs([]int{10}, []float64{1}, 0.9, 3)
	if err != nil || len(pairs) != 0 {
		t.Errorf("unsatisfiable threshold should return empty: %v %v", pairs, err)
	}
	if _, err := topKSupportPairs(nil, nil, 0.5, 1); err == nil {
		t.Errorf("empty input accepted")
	}
}
