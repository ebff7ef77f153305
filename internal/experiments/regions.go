package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"optrule/internal/region"
)

// RegionRow compares the three §1.4 region classes on one workload.
type RegionRow struct {
	Workload   string
	RectGain   float64
	RectSecs   float64
	ConvexGain float64
	ConvexSecs float64
	XMonoGain  float64
	XMonoSecs  float64
}

// RegionResult is the region-class comparison (an extension experiment;
// not a table in the base paper).
type RegionResult struct {
	GridSide int
	Rows     []RegionRow
}

// Regions builds three planted 2-D workloads — an axis-parallel block,
// a diagonal band, and a disk — and reports each region class's optimal
// gain and cost on a gridSide×gridSide grid. The expected shape: all
// classes tie on the block; x-monotone wins the diagonal; the disk is
// captured by rectilinear-convex and x-monotone but not the rectangle.
func Regions(gridSide int, cellTuples int, seed int64) (RegionResult, error) {
	if gridSide <= 0 {
		gridSide = 32
	}
	if cellTuples <= 0 {
		cellTuples = 50
	}
	res := RegionResult{GridSide: gridSide}
	rng := rand.New(rand.NewSource(seed))
	workloads := []struct {
		name string
		hot  func(r, c int) bool
	}{
		{"block", func(r, c int) bool {
			return r >= gridSide/4 && r < gridSide/2 && c >= gridSide/4 && c < gridSide/2
		}},
		{"diagonal", func(r, c int) bool {
			d := r - c
			return d <= 1 && d >= -1
		}},
		{"disk", func(r, c int) bool {
			dr := float64(r - gridSide/2)
			dc := float64(c - gridSide/2)
			return dr*dr+dc*dc < float64(gridSide*gridSide)/16
		}},
	}
	for _, wl := range workloads {
		g, err := region.NewGrid(gridSide, gridSide)
		if err != nil {
			return res, err
		}
		for r := 0; r < gridSide; r++ {
			for c := 0; c < gridSide; c++ {
				g.U[r][c] = cellTuples
				p := 0.05
				if wl.hot(r, c) {
					p = 0.8
				}
				hits := 0
				for k := 0; k < cellTuples; k++ {
					if rng.Float64() < p {
						hits++
					}
				}
				g.V[r][c] = float64(hits)
			}
		}
		row := RegionRow{Workload: wl.name}
		start := time.Now()
		rect, _, err := region.MaxGainRect(g, 0.5, 1)
		if err != nil {
			return res, err
		}
		row.RectSecs = time.Since(start).Seconds()
		row.RectGain = rect.Gain

		start = time.Now()
		rc, _, err := region.MaxGainRectilinearConvex(g, 0.5, 1)
		if err != nil {
			return res, err
		}
		row.ConvexSecs = time.Since(start).Seconds()
		row.ConvexGain = rc.Gain

		start = time.Now()
		xm, _, err := region.MaxGainXMonotone(g, 0.5, 1)
		if err != nil {
			return res, err
		}
		row.XMonoSecs = time.Since(start).Seconds()
		row.XMonoGain = xm.Gain
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the comparison.
func (r RegionResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Extension: §1.4 region classes, optimized gain at θ=50%% (%dx%d grid)\n", r.GridSide, r.GridSide)
	fmt.Fprintf(w, "%10s  %12s %10s  %12s %10s  %12s %10s\n",
		"workload", "rect gain", "(s)", "convex gain", "(s)", "xmono gain", "(s)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10s  %12.1f %10.4f  %12.1f %10.4f  %12.1f %10.4f\n",
			row.Workload, row.RectGain, row.RectSecs,
			row.ConvexGain, row.ConvexSecs, row.XMonoGain, row.XMonoSecs)
	}
}
