// Package region implements the two-dimensional extension sketched in
// the paper's Section 1.4: rules of the form
//
//	(A1, A2) ∈ X  ⇒  C
//
// where X is an axis-parallel RECTANGLE in the plane of two numeric
// attributes (the paper's example: (Age, Balance) ∈ X ⇒ CardLoan=yes).
// The paper notes that arbitrary connected regions are NP-hard and
// defers region classes to follow-up work [7, 20]; the rectangle case
// reduces cleanly to the 1-D machinery of Section 4: for every pair of
// row ranges, collapse the grid rows into one bucket sequence over the
// columns (an incremental prefix-sum collapse: extending the range by
// one row adds one row of cells) and run the 1-D optimizer. With an
// M×M grid this costs O(M³) — practical for the display-sized grids
// 2-D rules make sense at — versus O(M⁴) for naive rectangle
// enumeration, which is also implemented as the property-test oracle.
//
// # Grids and kernels
//
// A Grid stores its cells in ONE contiguous row-major backing array
// (U and V are row views into it), so the kernels stream cache lines
// instead of chasing row pointers, and a grid costs two allocations
// regardless of side. There are five kernels, one entry point each:
// the three rectangle kinds (OptimalRectConfidence, OptimalRectSupport,
// MaxGainRect) and the two region classes (MaxGainXMonotone,
// MaxGainRectilinearConvex). Each takes a worker count: the rectangle
// sweeps hand out row-pair ranges by r1, the DPs split each column's
// interval table, and one worker runs the same code inline, serially.
// Differential tests pin every worker count to the one-worker result
// and to naive oracles, so callers may pick purely by hardware. The
// parallelism is what raises the practical grid side from 64 to 256.
//
// The two region DPs (MaxGainXMonotone, MaxGainRectilinearConvex) both
// run in O(cols · rows²) time: per column, every interval's best
// predecessor comes from staircase max tables over the previous
// column — one for the x-monotone DP, one per phase layer (four) for
// the rectilinear-convex DP.
//
// The miner's fused 2-D engine (miner.MineAll2D) fills many Grids —
// one per attribute pair — from a single relation scan and runs these
// kernels on the in-memory grids.
package region

import (
	"fmt"
	"sync/atomic"

	"optrule/internal/core"
)

// Grid holds per-cell statistics over an M1×M2 bucketing of two
// numeric attributes: U[r][c] tuples fall in row-bucket r of the first
// attribute and column-bucket c of the second; V[r][c] of those meet
// the objective condition.
//
// Grids built by NewGrid store all cells in one contiguous row-major
// backing array; U and V are views into it, so element writes through
// U/V are fine, but rows must not be rebound to other slices (the
// kernels detect rebinding and fall back to a packed copy of the
// views, so results stay correct at a copying cost).
type Grid struct {
	U [][]int
	V [][]float64

	// Contiguous backing of U and V for NewGrid-built grids; nil for
	// grids assembled from struct literals.
	u []int
	v []float64

	// Cached Total: the full-grid tuple count is needed once per mined
	// rule (support thresholds, baselines) and costs O(M²) to compute,
	// so it is memoized. The atomics make concurrent Total calls on a
	// shared (no longer mutated) grid safe: racing first calls compute
	// the same value and the flag is published after it. Callers
	// writing cells directly through U should finish filling before
	// the first Total call.
	total      atomic.Int64
	totalValid atomic.Bool
}

// NewGrid allocates a zeroed rows×cols grid backed by one contiguous
// row-major array per statistic.
func NewGrid(rows, cols int) (*Grid, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("region: grid shape %dx%d must be positive", rows, cols)
	}
	g := &Grid{
		U: make([][]int, rows),
		V: make([][]float64, rows),
		u: make([]int, rows*cols),
		v: make([]float64, rows*cols),
	}
	for r := 0; r < rows; r++ {
		g.U[r] = g.u[r*cols : (r+1)*cols : (r+1)*cols]
		g.V[r] = g.v[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return g, nil
}

// Rows returns the number of row buckets.
func (g *Grid) Rows() int { return len(g.U) }

// Cols returns the number of column buckets.
func (g *Grid) Cols() int { return len(g.U[0]) }

// Total returns the total tuple count. The first call computes it in
// O(M²) and caches it; Merge keeps the cache coherent. Callers filling
// cells directly through U should do so before the first Total call.
func (g *Grid) Total() int {
	if g.totalValid.Load() {
		return int(g.total.Load())
	}
	n := 0
	for _, row := range g.U {
		for _, u := range row {
			n += u
		}
	}
	g.total.Store(int64(n))
	g.totalValid.Store(true)
	return n
}

// SumV returns the total objective count Σ V over all cells — the
// numerator of the whole-grid baseline confidence.
func (g *Grid) SumV() float64 {
	s := 0.0
	for _, row := range g.V {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// Flat returns the grid's contiguous row-major backing arrays —
// U[r][c] is Flat's u[r*Cols()+c] — for NewGrid-built grids; ok is
// false for grids assembled from struct literals or with rebound rows.
// Writing through the returned slices writes the grid (the counting
// kernels fill cells this way to avoid the row-header indirection);
// callers doing so must finish filling before the first Total call,
// as with writes through U.
func (g *Grid) Flat() (u []int, v []float64, ok bool) {
	rows, cols := g.Rows(), g.Cols()
	if g.u == nil || len(g.u) != rows*cols || len(g.v) != rows*cols {
		return nil, nil, false
	}
	for r := 0; r < rows; r++ {
		if &g.U[r][0] != &g.u[r*cols] || &g.V[r][0] != &g.v[r*cols] {
			return nil, nil, false
		}
	}
	return g.u, g.v, true
}

// Merge adds other's cells into g. Shapes must match. The fused 2-D
// counting scan fills one grid per worker and merges them afterwards;
// since all cell values are integer counts, merging is exact and the
// merged grid is identical regardless of how rows were segmented.
func (g *Grid) Merge(other *Grid) error {
	if err := g.validate(); err != nil {
		return err
	}
	if err := other.validate(); err != nil {
		return err
	}
	if g.Rows() != other.Rows() || g.Cols() != other.Cols() {
		return fmt.Errorf("region: merging %dx%d grid into %dx%d",
			other.Rows(), other.Cols(), g.Rows(), g.Cols())
	}
	for r := range g.U {
		gu, gv := g.U[r], g.V[r]
		ou, ov := other.U[r], other.V[r]
		for c := range gu {
			gu[c] += ou[c]
			//optlint:ignore floatmerge grid cells are exact small integer counts stored in float64; integer-valued addition is exact, so merge order cannot change the result
			gv[c] += ov[c]
		}
	}
	if g.totalValid.Load() {
		g.total.Add(int64(other.Total()))
	}
	return nil
}

// validate checks the grid's shape invariants.
func (g *Grid) validate() error {
	if g == nil || len(g.U) == 0 || len(g.U[0]) == 0 {
		return fmt.Errorf("region: empty grid")
	}
	cols := len(g.U[0])
	if len(g.V) != len(g.U) {
		return fmt.Errorf("region: U has %d rows, V has %d", len(g.U), len(g.V))
	}
	for r := range g.U {
		if len(g.U[r]) != cols || len(g.V[r]) != cols {
			return fmt.Errorf("region: ragged grid at row %d", r)
		}
		for c := range g.U[r] {
			if g.U[r][c] < 0 {
				return fmt.Errorf("region: negative count at (%d,%d)", r, c)
			}
		}
	}
	return nil
}

// flat returns the contiguous row-major cell arrays the kernels
// operate on. For NewGrid-built grids whose rows still alias the
// backing (the normal case) this is free; otherwise — struct-literal
// grids, rebound rows — it packs a fresh copy of the U/V views, so the
// kernels always see exactly what the caller sees. Call after validate.
func (g *Grid) flat() (u []int, v []float64) {
	if fu, fv, ok := g.Flat(); ok {
		return fu, fv
	}
	rows, cols := g.Rows(), g.Cols()
	u = make([]int, rows*cols)
	v = make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		copy(u[r*cols:(r+1)*cols], g.U[r])
		copy(v[r*cols:(r+1)*cols], g.V[r])
	}
	return u, v
}

// Rect is an inclusive rectangle of bucket indices with its statistics.
type Rect struct {
	R1, R2 int // row-bucket range (first attribute)
	C1, C2 int // column-bucket range (second attribute)
	Count  int
	SumV   float64
	Conf   float64
	Gain   float64 // set by MaxGainRect only
}

// compactColumns drops zero-count columns, returning compacted slices
// plus the mapping from compact index to original column.
func compactColumns(u []int, v []float64, cu []int, cv []float64, cmap []int) ([]int, []float64, []int) {
	cu, cv, cmap = cu[:0], cv[:0], cmap[:0]
	for c := range u {
		if u[c] > 0 {
			cu = append(cu, u[c])
			cv = append(cv, v[c])
			cmap = append(cmap, c)
		}
	}
	return cu, cv, cmap
}

// rectSolve is the 1-D inner optimizer run per collapsed row range. sc
// pools its working storage across the O(M²) calls of one sweep.
type rectSolve func(u []int, v []float64, sc *core.Scratch) (core.Pair, bool, error)

// rectPrune reports that NO range of the collapsed columns can
// STRICTLY beat best under the sweep's objective, so the 1-D solver
// call may be skipped. Pruning must be conservative — candidates that
// would tie must not be pruned — because the sweep's fold keeps the
// first-encountered best on ties; skipping only strictly-worse
// candidates therefore never changes the result, serial or parallel.
// All comparisons are exact (integer-valued counts).
type rectPrune func(u []int, v []float64, best Rect) bool

// pruneConfidence: a range's confidence is a weighted average of its
// columns' per-column confidences, so it cannot exceed their maximum.
// If every column's confidence is strictly below best's (compared by
// cross-multiplication), no range here can win.
func pruneConfidence(u []int, v []float64, best Rect) bool {
	bestCount := float64(best.Count)
	for c := range u {
		if v[c]*bestCount >= best.SumV*float64(u[c]) {
			return false
		}
	}
	return true
}

// pruneSupport: no sub-range can hold more tuples than the whole
// collapsed range, so a range whose total is not strictly above best's
// count cannot win the support objective.
func pruneSupport(u []int, v []float64, best Rect) bool {
	total := 0
	for _, uc := range u {
		total += uc
	}
	return total <= best.Count
}

// rectSweep is one rectangle sweep over a grid's flat cells uf/vf:
// every row pair r1 <= r2 collapses into one column sequence (the
// running column sums of rows r1..r2), and either the 1-D solver runs
// on the compacted sequence (solve set, pruned by prune, candidates
// ordered by better) or, with solve nil, Kadane finds its maximum-gain
// column range at theta. Both cost O(rows²·cols) plus the solver.
type rectSweep struct {
	uf         []int
	vf         []float64
	rows, cols int
	solve      rectSolve
	prune      rectPrune
	better     func(a, b Rect) bool
	theta      float64
}

// sweepWorker is one worker's state for a rectangle sweep: the
// collapsed row-range accumulators, the compacted copies and 1-D solver
// scratch (solver sweeps) or the gain-prefix table (Kadane sweeps), and
// the running best over the r1 values the worker has claimed.
type sweepWorker struct {
	u     []int
	v     []float64
	f     []float64
	cu    []int
	cv    []float64
	cmap  []int
	core  core.Scratch
	best  Rect
	found bool
	err   error
}

// newWorkers allocates n workers' state from one int and one float slab.
func (s rectSweep) newWorkers(n int) []sweepWorker {
	c := s.cols
	ws := make([]sweepWorker, n)
	ints, floats := make([]int, n*3*c), make([]float64, n*(3*c+1))
	for w := range ws {
		in, fl := ints[w*3*c:(w+1)*3*c], floats[w*(3*c+1):(w+1)*(3*c+1)]
		ws[w].u, ws[w].cu, ws[w].cmap = in[:c], in[c:c:2*c], in[2*c:2*c:3*c]
		ws[w].v, ws[w].cv, ws[w].f = fl[:c], fl[c:c:2*c], fl[2*c:]
	}
	return ws
}

// row folds row r1's candidates into sw's running best.
func (s rectSweep) row(sw *sweepWorker, r1 int) {
	if s.solve == nil {
		sw.best, sw.found = gainRow(s.uf, s.vf, s.rows, s.cols, r1, s.theta, sw.u, sw.v, sw.f, sw.best, sw.found)
		return
	}
	sw.best, sw.found, sw.err = solveRow(s.uf, s.vf, s.rows, s.cols, r1, s.solve, s.better, s.prune, sw, sw.best, sw.found)
}

// solveRow folds the 1-D solver over the row pairs (r1, r2), r2 ∈
// [r1, rows), into the running best. The row collapse is incremental
// (extending the range to r2 adds row r2's cells to the running column
// sums), and candidates fold in (r2, solver) order with a strict
// comparison, so a worker that claims r1 values in increasing order
// computes exactly the serial fold over them, first best kept on ties.
func solveRow(uf []int, vf []float64, rows, cols, r1 int, solve rectSolve, better func(a, b Rect) bool,
	prune rectPrune, sw *sweepWorker, best Rect, found bool) (Rect, bool, error) {
	u, v := sw.u, sw.v
	for c := range u {
		u[c], v[c] = 0, 0
	}
	for r2 := r1; r2 < rows; r2++ {
		row := r2 * cols
		for c := 0; c < cols; c++ {
			u[c] += uf[row+c]
			v[c] += vf[row+c]
		}
		sw.cu, sw.cv, sw.cmap = compactColumns(u, v, sw.cu, sw.cv, sw.cmap)
		if len(sw.cu) == 0 {
			continue
		}
		if found && prune != nil && prune(sw.cu, sw.cv, best) {
			continue
		}
		p, ok, err := solve(sw.cu, sw.cv, &sw.core)
		if err != nil {
			return best, found, err
		}
		if !ok {
			continue
		}
		cand := Rect{
			R1: r1, R2: r2,
			C1: sw.cmap[p.S], C2: sw.cmap[p.T],
			Count: p.Count, SumV: p.SumV, Conf: p.Conf,
		}
		if !found || better(cand, best) {
			best = cand
			found = true
		}
	}
	return best, found, nil
}

// gainRow is solveRow's Kadane counterpart: each collapsed row range's
// best column range by gain, folded with a strict comparison.
func gainRow(uf []int, vf []float64, rows, cols, r1 int, theta float64,
	u []int, v, f []float64, best Rect, found bool) (Rect, bool) {
	for c := range u {
		u[c], v[c] = 0, 0
	}
	for r2 := r1; r2 < rows; r2++ {
		row := r2 * cols
		for c := 0; c < cols; c++ {
			u[c] += uf[row+c]
			v[c] += vf[row+c]
		}
		// Kadane via the gain-prefix table, as in core.MaxGainRange:
		// the best range ending at c is f[c+1] − min_{k<=c} f[k].
		minIdx := 0
		for c := 0; c < cols; c++ {
			f[c+1] = f[c] + v[c] - theta*float64(u[c])
			if f[c] < f[minIdx] {
				minIdx = c
			}
			gain := f[c+1] - f[minIdx]
			if !found || gain > best.Gain {
				best = Rect{R1: r1, R2: r2, C1: minIdx, C2: c, Gain: gain}
				found = true
			}
		}
	}
	return best, found
}

// optimalRect validates the grid and runs the solver sweep on workers
// workers (see rectSweep.run).
func optimalRect(g *Grid, solve rectSolve, better func(a, b Rect) bool, prune rectPrune, workers int) (Rect, bool, error) {
	if err := g.validate(); err != nil {
		return Rect{}, false, err
	}
	uf, vf := g.flat()
	s := rectSweep{uf: uf, vf: vf, rows: g.Rows(), cols: g.Cols(), solve: solve, prune: prune, better: better}
	return s.run(workers)
}

// OptimalRectConfidence finds the rectangle maximizing confidence among
// rectangles with at least minSupCount tuples; ties prefer larger
// support. ok is false when no rectangle is ample. The row-pair sweep
// runs on up to workers workers; the result is the same for any count.
func OptimalRectConfidence(g *Grid, minSupCount float64, workers int) (Rect, bool, error) {
	return optimalRect(g, func(u []int, v []float64, sc *core.Scratch) (core.Pair, bool, error) {
		return core.OptimalSlopePairScratch(u, v, minSupCount, sc)
	}, betterConfidence, pruneConfidence, workers)
}

// betterConfidence orders rectangle candidates by confidence (compared
// by exact cross-multiplication of integer-valued counts), then by
// support.
func betterConfidence(a, b Rect) bool {
	la := a.SumV * float64(b.Count)
	lb := b.SumV * float64(a.Count)
	if la != lb {
		return la > lb
	}
	return a.Count > b.Count
}

// OptimalRectSupport finds the rectangle maximizing support among
// rectangles whose confidence is at least theta. The row-pair sweep
// runs on up to workers workers; the result is the same for any count.
func OptimalRectSupport(g *Grid, theta float64, workers int) (Rect, bool, error) {
	return optimalRect(g, func(u []int, v []float64, sc *core.Scratch) (core.Pair, bool, error) {
		return core.OptimalSupportPairScratch(u, v, theta, sc)
	}, betterSupport, pruneSupport, workers)
}

func betterSupport(a, b Rect) bool {
	return a.Count > b.Count
}

func betterGain(a, b Rect) bool {
	return a.Gain > b.Gain
}

// MaxGainRect finds the rectangle maximizing the gain Σ(v − θ·u) —
// the 2-D optimized-gain region, O(Rows²·Cols) via Kadane per collapsed
// row range. The row-pair sweep runs on up to workers workers; the
// result is the same for any count.
func MaxGainRect(g *Grid, theta float64, workers int) (Rect, bool, error) {
	if err := g.validate(); err != nil {
		return Rect{}, false, err
	}
	uf, vf := g.flat()
	cols := g.Cols()
	s := rectSweep{uf: uf, vf: vf, rows: g.Rows(), cols: cols, better: betterGain, theta: theta}
	best, found, err := s.run(workers)
	if err != nil || !found {
		return Rect{}, false, err
	}
	// Fill in the winner's statistics, summing each column over the
	// winner's rows and then the columns, as a collapse would.
	for c := best.C1; c <= best.C2; c++ {
		u, v := 0, 0.0
		for r := best.R1; r <= best.R2; r++ {
			u += uf[r*cols+c]
			v += vf[r*cols+c]
		}
		best.Count += u
		best.SumV += v
	}
	if best.Count > 0 {
		best.Conf = best.SumV / float64(best.Count)
	}
	return best, true, nil
}
