// Two-dimensional rules (paper §1.4): find the rectangle X in the
// (Age, Balance) plane such that
//
//	(Age, Balance) ∈ X  ⇒  (CardLoan = yes)
//
// is an optimized rule — the exact example the paper uses to motivate
// its two-attribute extension. Customers in their thirties with
// mid-range balances are planted as the hot segment; the miner must
// recover that rectangle in all three optimization flavors, plus the
// two non-rectangular region classes, and then sweep EVERY numeric
// attribute pair with the fused all-pairs engine.
//
//	go run ./examples/twodim
package main

import (
	"fmt"
	"log"
	"math/rand"

	"optrule"
)

func main() {
	rel, err := buildCustomers(200000)
	if err != nil {
		log.Fatal(err)
	}
	cfg := optrule.Config{
		MinSupport:    0.02,
		MinConfidence: 0.50,
		Seed:          13,
	}

	// Single-pair mining, one call per kind. Grid-side guidance: the
	// rectangle sweep and the region DPs are all O(side³), so the
	// side is a quality/cost dial — 32–64 is plenty to display a
	// rule (each bucket holds ~n/side² tuples); up to 256 is practical
	// for a targeted pair on a multicore machine thanks to the parallel
	// kernels; keep it at 64 or below when sweeping many pairs.
	for _, kind := range []optrule.RuleKind{
		optrule.OptimizedConfidence,
		optrule.OptimizedSupport,
		optrule.OptimizedGain,
	} {
		rule, err := optrule.Mine2D(rel, "Age", "Balance", "CardLoan", true, kind, 48, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if rule == nil {
			fmt.Printf("%-22v no rectangle meets the threshold\n", kind)
			continue
		}
		fmt.Println(rule)
	}

	// The two non-rectangular region classes of §1.4: rectilinear-convex
	// regions bulge like 2-D clusters; x-monotone regions can follow
	// arbitrary column-wise trends. On this rectangular planted signal
	// all three classes converge to the same block; on diagonal or round
	// signals (see the test suite) the more general classes strictly win.
	rc, err := optrule.MineRectilinearConvex(rel, "Age", "Balance", "CardLoan", true, 48, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if rc != nil {
		fmt.Println(rc)
	}
	xm, err := optrule.MineXMonotone(rel, "Age", "Balance", "CardLoan", true, 48, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if xm != nil {
		fmt.Println(xm)
	}

	// The all-pairs engine: every unordered pair of numeric attributes
	// (here (Age, Balance), (Age, Tenure), (Balance, Tenure)), both
	// paper-standard rectangle kinds plus an x-monotone region per
	// pair — in exactly TWO scans of the relation, no matter how many
	// pairs there are. Rules come back sorted by lift, so the planted
	// (Age, Balance) rectangle surfaces first.
	fmt.Println("\nAll pairs (fused engine, two scans):")
	res, err := optrule.MineAll2D(rel, optrule.Options2D{
		Objective:      "CardLoan",
		ObjectiveValue: true,
		Regions:        []optrule.RegionClass{optrule.XMonotoneClass},
		GridSide:       32, // all-pairs sweeps pay the kernel cost per pair: stay modest
	}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d pairs, %d rectangle rules, %d region rules\n",
		res.Pairs, len(res.Rules), len(res.Regions))
	for _, r := range res.Rules {
		fmt.Println(" ", r)
	}
	for _, r := range res.Regions {
		fmt.Println(" ", r)
	}
}

// buildCustomers plants the hot rectangle Age ∈ [30, 42] ×
// Balance ∈ [5000, 20000] at 75% card-loan rate over a 10% background;
// Tenure is an uninformative third numeric attribute so the all-pairs
// sweep has uninteresting pairs to rank below the planted one.
func buildCustomers(n int) (*optrule.MemoryRelation, error) {
	rel, err := optrule.NewMemoryRelation(optrule.Schema{
		{Name: "Age", Kind: optrule.Numeric},
		{Name: "Balance", Kind: optrule.Numeric},
		{Name: "Tenure", Kind: optrule.Numeric},
		{Name: "CardLoan", Kind: optrule.Boolean},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(99))
	rel.Grow(n)
	for i := 0; i < n; i++ {
		age := float64(18 + rng.Intn(73))
		balance := 100 * rng.ExpFloat64() * (1 + 99*rng.Float64())
		tenure := rng.Float64() * 40
		p := 0.10
		if age >= 30 && age <= 42 && balance >= 5000 && balance <= 20000 {
			p = 0.75
		}
		if err := rel.Append([]float64{age, balance, tenure}, []bool{rng.Float64() < p}); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
