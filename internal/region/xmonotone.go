package region

import (
	"fmt"

	"optrule/internal/freelist"
)

// X-monotone regions (§1.4 of the paper; developed in the SIGMOD'96
// companion [7]): a connected union of grid cells whose intersection
// with every column is a single interval, with the intervals of
// adjacent columns overlapping. X-monotone regions can follow diagonal
// trends a rectangle cannot (e.g. card-loan propensity rising with both
// age and balance).
//
// This file computes the x-monotone region maximizing the GAIN
// Σ(v − θ·u) — the objective for which the companion paper gives its
// fastest algorithms — by exact dynamic programming:
//
//	f(c, [a,b]) = W(c, [a,b]) + max(0, g(c−1, [a,b]))
//	g(c−1, I)   = max{ f(c−1, I') : I' ∩ I ≠ ∅ }
//
// where W is the interval's gain in column c. The overlap maximum for
// ALL intervals of a column is computed in O(rows²) with a staircase
// max table, so the whole DP is O(cols · rows²) time and O(rows²)
// memory — simpler and asymptotically heavier than the companion
// paper's hand-probing algorithm, but exact, and entirely adequate at
// the display-scale grids 2-D mining runs at.
//
// With several workers, each column's interval-gain table and DP-cell
// fill are split across them; only the staircase table (whose cells
// depend on their left and lower neighbors) stays serial. Every DP
// cell — value AND backtracking choice — is a pure function of the
// previous column's state, so the result is the same for any worker
// count.

// ColumnInterval is one column's slice of an x-monotone region.
type ColumnInterval struct {
	Col    int // column bucket index
	Lo, Hi int // inclusive row bucket range
}

// XMonotoneRegion is a mined x-monotone region with its statistics.
type XMonotoneRegion struct {
	Columns []ColumnInterval // consecutive columns, adjacent intervals overlap
	Count   int
	SumV    float64
	Conf    float64
	Gain    float64
}

// negInfF is a gain smaller than any achievable value, used as the DP's
// "no region" marker.
const negInfF = -1e308

// cellBest tracks the best DP cell of one a-row of the interval table,
// for the deterministic partition-and-merge best scan.
type cellBest struct {
	gain  float64
	idx   int
	found bool
}

// choicePool and backPool recycle the x-monotone and
// rectilinear-convex DPs' backtracking slabs across calls; at grid side
// 64 the rectilinear-convex slab alone is 4 MB. A recycled slab needs
// no clearing: every interval cell (a <= b) of every column is written
// before backtracking reads it, and backtracking reads no other cell.
// Slabs of at most freelist.MaxBytes (grid sides up to about 100) stay
// on the free list through collections, so a batch's DPs allocate the
// same bytes whether or not the collector runs during it.
var choicePool, backPool freelist.Slabs[int32]

// transposedGain returns gainT with gainT[c*rows+r] = V[r][c] − θ·U[r][c]:
// the per-cell gains laid out column-major, so the per-column DP loops
// stream contiguous memory.
func transposedGain(uf []int, vf []float64, rows, cols int, theta float64) []float64 {
	gainT := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		row := r * cols
		for c := 0; c < cols; c++ {
			gainT[c*rows+r] = vf[row+c] - theta*float64(uf[row+c])
		}
	}
	return gainT
}

// MaxGainXMonotone returns the x-monotone region maximizing the gain
// Σ(v − θ·u) over the grid. ok is false only for an invalid grid; on
// any valid grid some single-cell region exists. Each column's interval
// table is split across up to workers workers; the result, including
// the backtracked column intervals, is the same for any count.
//
// Note the orientation: "columns" here are the grid's SECOND index (the
// second numeric attribute), and the per-column interval is a row
// range, so the region is monotone along the column axis.
func MaxGainXMonotone(g *Grid, theta float64, workers int) (XMonotoneRegion, bool, error) {
	if err := g.validate(); err != nil {
		return XMonotoneRegion{}, false, err
	}
	rows, cols := g.Rows(), g.Cols()
	uf, vf := g.flat()
	gainT := transposedGain(uf, vf, rows, cols, theta)

	// Per-column interval gains via prefix sums: W[a][b] for a <= b.
	// Layout: w[a*rows+b].
	w := make([]float64, rows*rows)
	// f for the previous/current column, same layout.
	fPrev := make([]float64, rows*rows)
	fCur := make([]float64, rows*rows)
	// stair[x*rows+y] = max{ fPrev[a'][b'] : a' <= x, b' >= y }.
	stair := make([]float64, rows*rows)
	stairArg := make([]int32, rows*rows)

	// Backtracking: choice[c*rows*rows+a*rows+b] = the previous column's
	// interval index (a'<<16|b') extended by (a,b), or -1 when the region
	// starts at column c. One recycled slab for the whole call.
	choice := choicePool.Get(cols * rows * rows)
	defer choicePool.Put(choice)

	bestGain := negInfF
	bestCol, bestIdx := -1, -1
	bestPerA := make([]cellBest, rows)

	for c := 0; c < cols; c++ {
		colGain := gainT[c*rows : (c+1)*rows]
		// Interval gains, each a-row independent.
		parallelFor(workers, rows, func(lo, hi int) {
			for a := lo; a < hi; a++ {
				run := 0.0
				for b := a; b < rows; b++ {
					run += colGain[b]
					w[a*rows+b] = run
				}
			}
		})
		cchoice := choice[c*rows*rows : (c+1)*rows*rows]
		if c > 0 {
			// Staircase max over fPrev: stair(x, y) = max over a'<=x,
			// b'>=y of fPrev[a'][b']. Fill y descending, x ascending;
			// each cell depends on its (x−1, y) and (x, y+1) neighbors,
			// so this stage stays serial. stairArg tracks the argmax.
			for y := rows - 1; y >= 0; y-- {
				for x := 0; x < rows; x++ {
					best := negInfF
					var arg int32 = -1
					if x <= y { // [x, y] is a real interval of the previous column
						best = fPrev[x*rows+y]
						arg = int32(x<<16 | y)
					}
					if x > 0 && stair[(x-1)*rows+y] > best {
						best = stair[(x-1)*rows+y]
						arg = stairArg[(x-1)*rows+y]
					}
					if y < rows-1 && stair[x*rows+y+1] > best {
						best = stair[x*rows+y+1]
						arg = stairArg[x*rows+y+1]
					}
					stair[x*rows+y] = best
					stairArg[x*rows+y] = arg
				}
			}
		}
		// DP-cell fill plus per-a best scan; cells only read w, stair
		// and stairArg, so a-rows partition freely.
		parallelFor(workers, rows, func(lo, hi int) {
			for a := lo; a < hi; a++ {
				ab := cellBest{gain: negInfF}
				for b := a; b < rows; b++ {
					idx := a*rows + b
					val := w[idx]
					var ch int32 = -1
					if c > 0 {
						// Overlap condition for I'=[a',b'] vs I=[a,b]:
						// a' <= b and b' >= a.
						if prev := stair[b*rows+a]; prev > 0 {
							val += prev
							ch = stairArg[b*rows+a]
						}
					}
					fCur[idx] = val
					cchoice[idx] = ch
					if !ab.found || val > ab.gain {
						ab = cellBest{gain: val, idx: idx, found: true}
					}
				}
				bestPerA[a] = ab
			}
		})
		// Merge per-a bests in a order: the same first-achiever fold the
		// serial (a, b)-ascending scan performs.
		for a := 0; a < rows; a++ {
			if ab := bestPerA[a]; ab.found && ab.gain > bestGain {
				bestGain = ab.gain
				bestCol = c
				bestIdx = ab.idx
			}
		}
		fPrev, fCur = fCur, fPrev
	}
	if bestCol < 0 {
		return XMonotoneRegion{}, false, nil
	}

	// Backtrack the column intervals right to left.
	var rev []ColumnInterval
	c, idx := bestCol, bestIdx
	for {
		a, b := idx/rows, idx%rows
		rev = append(rev, ColumnInterval{Col: c, Lo: a, Hi: b})
		prevArg := choice[c*rows*rows+idx]
		if prevArg < 0 {
			break
		}
		idx = int(prevArg>>16)*rows + int(prevArg&0xffff)
		c--
	}
	region := XMonotoneRegion{Gain: bestGain}
	region.Columns = make([]ColumnInterval, len(rev))
	for i := range rev {
		region.Columns[len(rev)-1-i] = rev[i]
	}
	for _, ci := range region.Columns {
		for r := ci.Lo; r <= ci.Hi; r++ {
			region.Count += uf[r*cols+ci.Col]
			region.SumV += vf[r*cols+ci.Col]
		}
	}
	if region.Count > 0 {
		region.Conf = region.SumV / float64(region.Count)
	}
	return region, true, nil
}

// Validate checks the structural x-monotone invariants of a region:
// consecutive columns, each a valid interval, adjacent intervals
// overlapping. Used by tests and by callers that persist regions.
func (r XMonotoneRegion) Validate(rows, cols int) error {
	if len(r.Columns) == 0 {
		return fmt.Errorf("region: empty x-monotone region")
	}
	for i, ci := range r.Columns {
		if ci.Col < 0 || ci.Col >= cols {
			return fmt.Errorf("region: column %d out of range", ci.Col)
		}
		if ci.Lo < 0 || ci.Hi >= rows || ci.Lo > ci.Hi {
			return fmt.Errorf("region: invalid interval [%d, %d] at column %d", ci.Lo, ci.Hi, ci.Col)
		}
		if i > 0 {
			prev := r.Columns[i-1]
			if ci.Col != prev.Col+1 {
				return fmt.Errorf("region: columns %d and %d not consecutive", prev.Col, ci.Col)
			}
			if ci.Lo > prev.Hi || prev.Lo > ci.Hi {
				return fmt.Errorf("region: intervals at columns %d and %d do not overlap", prev.Col, ci.Col)
			}
		}
	}
	return nil
}
