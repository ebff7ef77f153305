package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"optrule/internal/datagen"
	"optrule/internal/plan"
	"optrule/internal/relation"
)

// The kernel experiment: what did vectorizing the one counting kernel
// buy over the reference per-tuple kernel it is pinned against? Two
// batches over the same in-memory relation, each run once with the
// reference kernel and once with the vectorized one: the all-attribute
// rules batch (the MineAll shape: every group the same tally shape)
// and a mixed 1-D+2-D batch (the same 1-D groups plus a pair grid).
// The experiment hard-fails unless both kernels produce bit-identical
// statistics — 1-D groups and 2-D grid cells.

// KernelResult is the counting-kernel experiment's structured result.
type KernelResult struct {
	Tuples int
	Reps   int
	// RulesRef and RulesVec are the all-attribute rules batch under the
	// reference per-tuple kernel and the batch-vectorized kernel.
	RulesRefSeconds float64
	RulesRefNsRow   float64
	RulesVecSeconds float64
	RulesVecNsRow   float64
	// Ref and Vec are the mixed 1-D+2-D batch under the two kernels.
	RefSeconds float64
	RefNsRow   float64
	VecSeconds float64
	VecNsRow   float64
	// RulesVecSpeedup and VecSpeedup are ref/vec for each batch.
	RulesVecSpeedup float64
	VecSpeedup      float64
}

// kernelRun resolves the batch and times plan.Run, taking the best of
// reps runs with a fresh cache each time so no statistics carry over.
func kernelRun(rel relation.Relation, d plan.Defaults, queries []plan.Query, reps int) (*plan.StatsSet, float64, error) {
	req := plan.NewRequirements()
	for _, q := range queries {
		r, err := plan.Resolve(rel, d, q)
		if err != nil {
			return nil, 0, err
		}
		req.Add(r)
	}
	var set *plan.StatsSet
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		s, err := plan.Run(rel, d, plan.NewCache(0), req)
		if err != nil {
			return nil, 0, err
		}
		elapsed := time.Since(start).Seconds()
		if i == 0 || elapsed < best {
			set, best = s, elapsed
		}
	}
	return set, best, nil
}

// Kernel times both batches under both kernels on an n-tuple
// in-memory bank relation (memory, so the comparison is pure CPU cost,
// not I/O).
func Kernel(n int, seed int64) (KernelResult, error) {
	const reps = 3
	res := KernelResult{Tuples: n, Reps: reps}
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		return res, err
	}
	rel, err := datagen.Materialize(bank, n, seed)
	if err != nil {
		return res, err
	}

	d := plan.Defaults{Buckets: 500, GridSide: 32, SampleFactor: 40, Seed: seed}
	dRef := d
	dRef.RefKernel = true
	rules := []plan.Query{{Op: plan.OpRules}}
	mixed := append(rules, plan.Query{
		Op: plan.OpRules2D, Numeric: "Balance", NumericB: "Age",
		Objective: "CardLoan", ObjectiveValue: true,
	})
	// compare times one batch under both kernels and checks them
	// bit-identical; pairs is the number of pair grids the batch fills.
	compare := func(name string, queries []plan.Query, pairs int) (refSec, vecSec float64, err error) {
		refSet, refSec, err := kernelRun(rel, dRef, queries, reps)
		if err != nil {
			return 0, 0, err
		}
		vecSet, vecSec, err := kernelRun(rel, d, queries, reps)
		if err != nil {
			return 0, 0, err
		}
		if len(refSet.Groups) == 0 || len(refSet.Pairs) != pairs {
			return 0, 0, fmt.Errorf("kernel: %s: reference run produced %d groups, %d pairs; the comparison is vacuous",
				name, len(refSet.Groups), len(refSet.Pairs))
		}
		if !reflect.DeepEqual(refSet.Groups, vecSet.Groups) {
			return 0, 0, fmt.Errorf("kernel: %s: vectorized 1-D statistics deviate from the reference kernel", name)
		}
		for k, w := range refSet.Pairs {
			g, ok := vecSet.Pairs[k]
			if !ok || w.N != g.N || w.Hits != g.Hits ||
				!reflect.DeepEqual(w.Grid.U, g.Grid.U) || !reflect.DeepEqual(w.Grid.V, g.Grid.V) {
				return 0, 0, fmt.Errorf("kernel: %s: vectorized pair grid %v deviates from the reference kernel", name, k)
			}
		}
		return refSec, vecSec, nil
	}
	if res.RulesRefSeconds, res.RulesVecSeconds, err = compare("rules", rules, 0); err != nil {
		return res, err
	}
	if res.RefSeconds, res.VecSeconds, err = compare("mixed", mixed, 1); err != nil {
		return res, err
	}

	perRow := func(s float64) float64 { return s * 1e9 / float64(n) }
	res.RulesRefNsRow = perRow(res.RulesRefSeconds)
	res.RulesVecNsRow = perRow(res.RulesVecSeconds)
	res.RefNsRow = perRow(res.RefSeconds)
	res.VecNsRow = perRow(res.VecSeconds)
	res.RulesVecSpeedup = res.RulesRefSeconds / res.RulesVecSeconds
	res.VecSpeedup = res.RefSeconds / res.VecSeconds
	return res, nil
}

// Print writes the kernel comparison.
func (r KernelResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Counting kernels: %d in-memory tuples, best of %d runs\n", r.Tuples, r.Reps)
	fmt.Fprintf(w, "%28s  %10s  %10s\n", "configuration", "seconds", "ns/row")
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "rules, reference kernel", r.RulesRefSeconds, r.RulesRefNsRow)
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "rules, vectorized kernel", r.RulesVecSeconds, r.RulesVecNsRow)
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "mixed, reference kernel", r.RefSeconds, r.RefNsRow)
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "mixed, vectorized kernel", r.VecSeconds, r.VecNsRow)
	fmt.Fprintf(w, "vectorized vs reference: %.2fx on rules, %.2fx on mixed\n", r.RulesVecSpeedup, r.VecSpeedup)
}
