package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"optrule/internal/bucketing"
	"optrule/internal/datagen"
	"optrule/internal/plan"
	"optrule/internal/relation"
)

// FusedRow compares the legacy per-attribute bucketing pipeline (one
// sampling pass plus one counting scan PER numeric attribute) against
// the fused engine (one sampling scan plus one counting scan TOTAL) on
// the same disk-resident relation, at one attribute count.
type FusedRow struct {
	Attrs         int
	LegacySeconds float64
	FusedSeconds  float64
	LegacyScans   int   // sequential passes issued by the legacy pipeline
	FusedScans    int   // always 2: sampling + counting
	LegacyRows    int64 // tuples streamed off disk by the legacy pipeline
	FusedRows     int64 // tuples streamed off disk by the fused pipeline
}

// FusedResult is the fused-engine scan-count experiment: the paper's
// cost currency is sequential passes over a database larger than main
// memory, so the d+1 → 2 pass collapse is THE headline win of the fused
// counting engine, and it grows with the number of numeric attributes.
type FusedResult struct {
	Tuples  int
	Buckets int
	Rows    []FusedRow
}

// Fused times both pipelines end to end (boundaries + counts for every
// numeric attribute, all Boolean objectives) over a disk relation of n
// tuples, for each attribute count in attrCounts.
func Fused(n int, attrCounts []int, seed int64) (FusedResult, error) {
	if attrCounts == nil {
		attrCounts = []int{1, 2, 4, 8}
	}
	res := FusedResult{Tuples: n, Buckets: 1000}
	dir, err := os.MkdirTemp("", "optrule-fused")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	for _, d := range attrCounts {
		shape, err := datagen.NewPerfShape(d, 4, nil)
		if err != nil {
			return res, err
		}
		path := fmt.Sprintf("%s/d%d.opr", dir, d)
		if err := datagen.WriteDisk(path, shape, n, seed); err != nil {
			return res, err
		}
		rel, err := relation.OpenDisk(path)
		if err != nil {
			return res, err
		}
		s := rel.Schema()
		var opts bucketing.Options
		for _, b := range s.BooleanIndices() {
			opts.Bools = append(opts.Bools, bucketing.BoolCond{Attr: b, Want: true})
		}
		opts.TrackExtremes = true
		row := FusedRow{Attrs: d}
		dflt := plan.Defaults{Buckets: res.Buckets, GridSide: 32, SampleFactor: 40, Seed: seed}

		// Legacy: one sampling pass + one counting scan per attribute.
		counting := &relation.CountingRelation{R: rel}
		start := time.Now()
		for _, attr := range s.NumericIndices() {
			bounds, err := bucketing.SampledBoundaries(counting, attr, res.Buckets, dflt.SampleFactor,
				plan.AttrRNG(seed, attr))
			if err != nil {
				return res, err
			}
			if _, err := bucketing.Count(counting, attr, bounds, opts); err != nil {
				return res, err
			}
		}
		row.LegacySeconds = time.Since(start).Seconds()
		row.LegacyScans = counting.Scans
		row.LegacyRows = counting.Rows

		// Fused: the plan executor's one sampling scan + one counting
		// scan, total, for the same all-attribute, all-objective batch.
		counting = &relation.CountingRelation{R: rel}
		start = time.Now()
		r, err := plan.Resolve(counting, dflt, plan.Query{Op: plan.OpRules})
		if err != nil {
			return res, err
		}
		req := plan.NewRequirements()
		req.Add(r)
		if _, err := plan.Run(counting, dflt, plan.NewCache(0), req); err != nil {
			return res, err
		}
		row.FusedSeconds = time.Since(start).Seconds()
		row.FusedScans = counting.Scans
		row.FusedRows = counting.Rows

		res.Rows = append(res.Rows, row)
		os.Remove(path)
	}
	return res, nil
}

// Print writes the fused-engine comparison.
func (r FusedResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fused counting engine: disk relation, %d tuples, M=%d, all objectives\n", r.Tuples, r.Buckets)
	fmt.Fprintf(w, "%6s  %12s  %12s  %11s  %10s  %12s  %11s  %8s\n",
		"attrs", "legacy (s)", "fused (s)", "legacy", "fused", "legacy rows", "fused rows", "speedup")
	fmt.Fprintf(w, "%6s  %12s  %12s  %11s  %10s  %12s  %11s  %8s\n",
		"", "", "", "scans", "scans", "", "", "")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6d  %12.3f  %12.3f  %11d  %10d  %12d  %11d  %7.1fx\n",
			row.Attrs, row.LegacySeconds, row.FusedSeconds,
			row.LegacyScans, row.FusedScans, row.LegacyRows, row.FusedRows,
			row.LegacySeconds/row.FusedSeconds)
	}
}
