// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 6 plus the analytic Figure 1 and
// Table I). Each experiment returns structured rows and can print
// itself in the paper's format; cmd/optbench and the repository-root
// benchmarks are thin wrappers around this package.
//
// Scale note: the paper ran on a 1996-era 133 MHz PowerPC with data on
// an IDE disk. The default sizes here are chosen so the full suite
// finishes in minutes on a commodity machine while preserving the
// figures' *shapes* (who wins, by what factor, and the linear growth);
// the Full option restores paper-scale sizes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"optrule/internal/bucketing"
	"optrule/internal/core"
	"optrule/internal/datagen"
	"optrule/internal/plan"
	"optrule/internal/relation"
	"optrule/internal/stats"
)

// Fig1Row is one point of Figure 1: the probability p_e that a
// bucket's sample count deviates by >= 50% from its expectation, as a
// function of the samples-per-bucket ratio S/M.
type Fig1Row struct {
	Ratio int       // S/M
	PE    []float64 // one value per M in Fig1 Ms
}

// Fig1Result reproduces Figure 1.
type Fig1Result struct {
	Delta  float64
	Ms     []int
	Rows   []Fig1Row
	Chosen int // the S/M the paper selects (first ratio with p_e < 0.3%)
}

// Fig1 computes the deviation-probability curves for δ=0.5 and
// M ∈ {5, 10, 10000}, for S/M = 1 … maxRatio.
func Fig1(maxRatio int) Fig1Result {
	res := Fig1Result{Delta: 0.5, Ms: []int{5, 10, 10000}}
	if maxRatio < 1 {
		maxRatio = 100
	}
	for r := 1; r <= maxRatio; r++ {
		row := Fig1Row{Ratio: r}
		for _, m := range res.Ms {
			row.PE = append(row.PE, stats.BucketDeviationProbability(r*m, m, res.Delta))
		}
		res.Rows = append(res.Rows, row)
	}
	// The paper reads the operating point off the most demanding curve
	// (largest M): the smallest S/M with p_e below 0.3% for M = 10⁴.
	res.Chosen = stats.SampleSizePerBucketForTarget(res.Ms[len(res.Ms)-1], res.Delta, 0.003, maxRatio)
	return res
}

// Print writes the figure as a table.
func (r Fig1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: p_e = Pr(|X - S/M| >= %.1f S/M), X ~ B(S, 1/M)\n", r.Delta)
	fmt.Fprintf(w, "%8s", "S/M")
	for _, m := range r.Ms {
		fmt.Fprintf(w, "  M=%-8d", m)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		// Print a sparse set of ratios like the figure's x-axis.
		if row.Ratio != 1 && row.Ratio%10 != 0 && row.Ratio != r.Chosen {
			continue
		}
		fmt.Fprintf(w, "%8d", row.Ratio)
		for _, pe := range row.PE {
			fmt.Fprintf(w, "  %-10.4g", pe)
		}
		if row.Ratio == r.Chosen {
			fmt.Fprintf(w, "  <- paper's operating point (p_e < 0.3%%)")
		}
		fmt.Fprintln(w)
	}
}

// Table1Row is one row of Table I: the worst-case interval the
// approximate rule's support and confidence can fall in, for an optimal
// rule with support 30% and confidence 70%, plus the empirically
// measured approximation on a planted dataset.
type Table1Row struct {
	Buckets                       int
	SupportLo, SupportHi          float64 // analytic bound
	ConfLo, ConfHi                float64 // analytic bound
	MeasuredSupport, MeasuredConf float64 // from the planted dataset
}

// Table1Result reproduces Table I (support_opt = 30%, conf_opt = 70%).
type Table1Result struct {
	SupportOpt, ConfOpt float64
	Rows                []Table1Row
}

// Table1 computes the analytic error-bound intervals of Table I and
// measures the actual approximation error on a deterministic planted
// dataset of n tuples whose optimal range has exactly support 30% and
// confidence 70%.
func Table1(n int) Table1Result {
	res := Table1Result{SupportOpt: 0.30, ConfOpt: 0.70}
	if n <= 0 {
		n = 100000
	}
	// Deterministic planted data: X = 0 … n−1; the block
	// [0.35n, 0.65n) is "inside" with exactly 7 of 10 tuples meeting C;
	// outside exactly 2 of 10 meet C. The optimized-support rule at
	// θ = 0.7 is exactly the inside block.
	lo, hi := int(0.35*float64(n)), int(0.65*float64(n))
	values := make([]float64, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		values[i] = float64(i)
		if i >= lo && i < hi {
			hits[i] = i%10 < 7
		} else {
			hits[i] = i%10 < 2
		}
	}
	for _, m := range []int{10, 50, 100, 500, 1000} {
		row := Table1Row{Buckets: m}
		row.SupportLo, row.SupportHi = core.ApproxSupportInterval(m, res.SupportOpt)
		row.ConfLo, row.ConfHi = core.ApproxConfidenceInterval(m, res.SupportOpt, res.ConfOpt)

		// Equi-depth buckets over the uniform grid are just equal slices.
		u := make([]int, m)
		v := make([]float64, m)
		for i := 0; i < n; i++ {
			b := i * m / n
			u[b]++
			if hits[i] {
				v[b]++
			}
		}
		p, ok, err := core.OptimalSupportPair(u, v, res.ConfOpt)
		if err != nil {
			panic(err)
		}
		if ok {
			row.MeasuredSupport = float64(p.Count) / float64(n)
			row.MeasuredConf = p.Conf
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Print writes the table in the paper's layout with the measured
// columns appended.
func (r Table1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table I: error range of approximation (support_opt=%.0f%%, conf_opt=%.0f%%)\n",
		100*r.SupportOpt, 100*r.ConfOpt)
	fmt.Fprintf(w, "%12s  %-17s  %-17s  %-10s  %-10s\n",
		"No. buckets", "support_app bound", "conf_app bound", "meas. supp", "meas. conf")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%12d  %6.2f%% ... %5.2f%%  %6.2f%% ... %5.2f%%  %9.2f%%  %9.2f%%\n",
			row.Buckets,
			100*row.SupportLo, 100*row.SupportHi,
			100*row.ConfLo, 100*row.ConfHi,
			100*row.MeasuredSupport, 100*row.MeasuredConf)
	}
}

// Fig9Row is one data point of Figure 9: wall-clock seconds to bucket
// every numeric attribute of an (8 numeric + 8 Boolean)-attribute
// relation into 1000 buckets and count all Boolean attributes.
type Fig9Row struct {
	Tuples        int
	Alg31Seconds  float64
	NaiveSeconds  float64
	VSplitSeconds float64
}

// Fig9Result reproduces Figure 9.
type Fig9Result struct {
	Buckets int
	Rows    []Fig9Row
}

// Fig9 times the three bucketing pipelines over the given tuple counts
// (the paper sweeps 5·10⁵ … 5·10⁶). A nil sizes slice uses a scaled
// default.
func Fig9(sizes []int, seed int64) (Fig9Result, error) {
	if sizes == nil {
		sizes = []int{50000, 100000, 200000, 400000}
	}
	res := Fig9Result{Buckets: 1000}
	shape := datagen.PaperPerfShape()
	for _, n := range sizes {
		rel, err := datagen.Materialize(shape, n, seed)
		if err != nil {
			return res, err
		}
		row := Fig9Row{Tuples: n}
		start := time.Now()
		if _, err := bucketing.Algorithm31All(rel, res.Buckets, 40, seed+1); err != nil {
			return res, err
		}
		row.Alg31Seconds = time.Since(start).Seconds()
		start = time.Now()
		if _, err := bucketing.NaiveSortAll(rel, res.Buckets); err != nil {
			return res, err
		}
		row.NaiveSeconds = time.Since(start).Seconds()
		start = time.Now()
		if _, err := bucketing.VerticalSplitSortAll(rel, res.Buckets); err != nil {
			return res, err
		}
		row.VSplitSeconds = time.Since(start).Seconds()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the timing rows and speedups.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 9: bucketing performance (M=%d, 8 numeric + 8 boolean attrs)\n", r.Buckets)
	fmt.Fprintf(w, "%10s  %12s  %12s  %12s  %10s  %10s\n",
		"tuples", "alg3.1 (s)", "naive (s)", "vsplit (s)", "naive/31", "vsplit/31")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10d  %12.3f  %12.3f  %12.3f  %9.1fx  %9.1fx\n",
			row.Tuples, row.Alg31Seconds, row.NaiveSeconds, row.VSplitSeconds,
			row.NaiveSeconds/row.Alg31Seconds, row.VSplitSeconds/row.Alg31Seconds)
	}
}

// FigRuleRow is one data point of Figures 10/11: time to find one
// optimized rule over M buckets, for the linear algorithm and the
// quadratic baseline.
type FigRuleRow struct {
	Buckets      int
	FastSeconds  float64
	NaiveSeconds float64 // 0 when skipped (too slow)
}

// FigRuleResult reproduces Figure 10 (confidence) or 11 (support).
type FigRuleResult struct {
	Name      string
	Threshold string
	Rows      []FigRuleRow
}

// ruleBuckets builds M random buckets resembling an equi-depth
// bucketing of N = 100·M tuples with a mid-range confidence profile.
func ruleBuckets(m int, rng *rand.Rand) (u []int, v []float64) {
	u = make([]int, m)
	v = make([]float64, m)
	for i := range u {
		u[i] = 90 + rng.Intn(21) // almost equi-depth around 100
		v[i] = float64(rng.Intn(u[i] + 1))
	}
	return u, v
}

// Fig10 times optimized-confidence rule finding (minimum support 5%)
// over bucket counts; naiveCap bounds the largest M the quadratic
// baseline is run at. A nil ms uses the paper's sweep shape scaled to
// 100 … 10⁶.
func Fig10(ms []int, naiveCap int, seed int64) FigRuleResult {
	if ms == nil {
		ms = []int{100, 1000, 10000, 100000, 1000000}
	}
	if naiveCap == 0 {
		naiveCap = 20000
	}
	res := FigRuleResult{Name: "Figure 10: optimized-confidence rules", Threshold: "min support 5%"}
	rng := rand.New(rand.NewSource(seed))
	for _, m := range ms {
		u, v := ruleBuckets(m, rng)
		total := 0
		for _, x := range u {
			total += x
		}
		minSup := 0.05 * float64(total)
		row := FigRuleRow{Buckets: m}
		start := time.Now()
		if _, _, err := core.OptimalSlopePair(u, v, minSup); err != nil {
			panic(err)
		}
		row.FastSeconds = time.Since(start).Seconds()
		if m <= naiveCap {
			start = time.Now()
			if _, _, err := core.NaiveOptimalSlopePair(u, v, minSup); err != nil {
				panic(err)
			}
			row.NaiveSeconds = time.Since(start).Seconds()
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Fig11 times optimized-support rule finding (minimum confidence 50%)
// over bucket counts, like Fig10.
func Fig11(ms []int, naiveCap int, seed int64) FigRuleResult {
	if ms == nil {
		ms = []int{100, 1000, 10000, 100000, 1000000}
	}
	if naiveCap == 0 {
		naiveCap = 20000
	}
	res := FigRuleResult{Name: "Figure 11: optimized-support rules", Threshold: "min confidence 50%"}
	rng := rand.New(rand.NewSource(seed))
	for _, m := range ms {
		u, v := ruleBuckets(m, rng)
		row := FigRuleRow{Buckets: m}
		start := time.Now()
		if _, _, err := core.OptimalSupportPair(u, v, 0.5); err != nil {
			panic(err)
		}
		row.FastSeconds = time.Since(start).Seconds()
		if m <= naiveCap {
			start = time.Now()
			if _, _, err := core.NaiveOptimalSupportPair(u, v, 0.5); err != nil {
				panic(err)
			}
			row.NaiveSeconds = time.Since(start).Seconds()
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Print writes the timing rows and speedups.
func (r FigRuleResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s (%s)\n", r.Name, r.Threshold)
	fmt.Fprintf(w, "%10s  %14s  %14s  %10s\n", "buckets", "linear (s)", "naive (s)", "speedup")
	for _, row := range r.Rows {
		if row.NaiveSeconds > 0 {
			fmt.Fprintf(w, "%10d  %14.6f  %14.6f  %9.1fx\n",
				row.Buckets, row.FastSeconds, row.NaiveSeconds, row.NaiveSeconds/row.FastSeconds)
		} else {
			fmt.Fprintf(w, "%10d  %14.6f  %14s  %10s\n", row.Buckets, row.FastSeconds, "(skipped)", "-")
		}
	}
}

// ParallelRow is one data point of the Section 3.3 scalability check.
type ParallelRow struct {
	PEs     int
	Seconds float64
	Speedup float64
}

// ParallelResult reports parallel-bucketing scalability.
type ParallelResult struct {
	Tuples  int
	Buckets int
	Rows    []ParallelRow
}

// Parallel measures Algorithm 3.2's counting scan with 1 … maxPEs
// workers of the engine's counting executor over an n-tuple relation.
func Parallel(n, maxPEs int, seed int64) (ParallelResult, error) {
	if n <= 0 {
		n = 2000000
	}
	if maxPEs <= 0 {
		maxPEs = 8
	}
	res := ParallelResult{Tuples: n, Buckets: 1000}
	shape, err := datagen.NewPerfShape(1, 4, nil)
	if err != nil {
		return res, err
	}
	rel, err := datagen.Materialize(shape, n, seed)
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	bounds, err := bucketing.SampledBoundaries(rel, 0, res.Buckets, 40, rng)
	if err != nil {
		return res, err
	}
	var base float64
	for pes := 1; pes <= maxPEs; pes *= 2 {
		start := time.Now()
		if err := CountScan(rel, 0, bounds, pes); err != nil {
			return res, err
		}
		sec := time.Since(start).Seconds()
		if pes == 1 {
			base = sec
		}
		res.Rows = append(res.Rows, ParallelRow{PEs: pes, Seconds: sec, Speedup: base / sec})
	}
	return res, nil
}

// CountScan runs one counting scan of the engine's executor
// (plan.RunContext, Algorithm 3.2) with pes workers: the driver is
// bucketed by bounds and every Boolean attribute's "yes" count is
// tallied. The cache is fresh and seeded with bounds, so the call is
// the counting scan alone.
func CountScan(rel relation.Relation, driver int, bounds bucketing.Boundaries, pes int) error {
	d := plan.Defaults{Buckets: bounds.NumBuckets(), GridSide: 1, SampleFactor: 1, PEs: pes}
	r, err := plan.Resolve(rel, d, plan.Query{Op: plan.OpRules,
		Numeric: rel.Schema()[driver].Name, Kinds: []plan.RuleKind{}})
	if err != nil {
		return err
	}
	req := plan.NewRequirements()
	req.Add(r)
	cache := plan.NewCache(0)
	cache.PutBounds(plan.BoundKey{Attr: driver, M: bounds.NumBuckets()}, bounds, rel.NumTuples())
	_, err = plan.RunContext(context.Background(), rel, d, cache, req)
	return err
}

// Print writes the scalability rows.
func (r ParallelResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Section 3.3: parallel bucketing (%d tuples, M=%d)\n", r.Tuples, r.Buckets)
	fmt.Fprintf(w, "%6s  %12s  %10s\n", "PEs", "seconds", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6d  %12.3f  %9.2fx\n", row.PEs, row.Seconds, row.Speedup)
	}
}
