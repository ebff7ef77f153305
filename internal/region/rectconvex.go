package region

// Rectilinear-convex regions — the third region class named in the
// paper's §1.4 (developed in the KDD'97 companion [20]): connected
// regions whose intersection with EVERY row and EVERY column is a
// single interval. Equivalently: per-column intervals [a_c, b_c] of
// consecutive overlapping columns where the lower endpoints a_c are
// valley-unimodal (non-increasing, then non-decreasing) and the upper
// endpoints b_c are hill-unimodal (non-decreasing, then non-increasing).
// Such regions bulge outward and back in — the shape of a 2-D cluster —
// without the axis-parallel rigidity of a rectangle or the free-form
// drift of an x-monotone region.
//
// MaxGainRectilinearConvex finds the gain-optimal such region by
// dynamic programming over columns with four phase layers
// (a still-descending / a ascending) × (b still-ascending / b
// descending). A target interval [a, b] in layer (pa, pb) extends the
// best previous-column interval [a', b'] of an allowed predecessor
// layer (a phase only moves forward, 0 → 1) inside one box:
//
//	(0,0): a' ∈ [a, b],  b' ∈ [a, b]
//	(0,1): a' ∈ [a, b],  b' ∈ [b, rows)
//	(1,0): a' ∈ [0, a],  b' ∈ [a, b]
//	(1,1): a' ∈ [0, a],  b' ∈ [b, rows)
//
// Every box is separable, so each column builds one staircase box
// table per target layer — the idiom of the x-monotone DP — in
// O(rows²): the elementwise max of the allowed previous layers, then a
// pass along b' within each row and a pass along a' down each column,
// each a prefix or suffix max over intervals only (a' ≤ b'), which
// turns the boxes' two-sided bounds into one-sided ones (see build).
// The DP is O(cols · rows²) time, the bound of the x-monotone DP and
// of the companion paper's algorithm.
//
// Tie rule: when predecessors tie, the one with the higher value wins,
// then the lower predecessor layer, then the lower flat index
// a'·rows+b'. Every pass and the layer combine compare by this total
// order, so the chosen predecessor — and the backtracked region — is
// the same for any pass order or worker partition. Optimal gains do
// not depend on the rule; only which of several equally optimal
// regions is returned does.
//
// With several workers the four box tables build concurrently (each
// pass split across workers: rows for the b' pass, columns for the a'
// pass) and every layer's DP-cell fill is split by a; each cell is a
// pure function of the previous column's tables, so the result is the
// same for any worker count.

// layer indices: pa=0 a-descending stage, pa=1 a-ascending stage;
// pb=0 b-ascending stage, pb=1 b-descending stage.
const numPhases = 2

// boxTable is one target layer's predecessor table for a column:
// val[a*rows+b] is the best previous-column value in the layer's box
// for target [a, b], and key[a*rows+b] names it as
// layer·rows² + a'·rows + b' — so comparing keys compares (layer,
// flat index) lexicographically, which is the tie rule.
type boxTable struct {
	val []float64
	key []int32
}

// beats reports whether candidate (v, k) wins over (bv, bk) under the
// tie rule: higher value, then lower key.
func beats(v float64, k int32, bv float64, bk int32) bool {
	return v > bv || (v == bv && k < bk)
}

// build fills t for target layer l from the previous column's layers
// fPrev. Only intervals — cells with a ≤ b — are read or written. The
// b' pass runs along each row's intervals (prefix from b' = a' for
// pb=0, suffix for pb=1); the a' pass runs down each column's
// intervals (prefix for pa=1, suffix from a' = b for pa=0). Layers
// with pa=1 take the a' pass first, so the b' pass's lower bound
// b' ≥ a is the row's first interval; layers with pa=0 take the b'
// pass first, so the a' pass's upper bound a' ≤ b is the column's
// last interval. Each pass is independent across rows (b' pass) or
// columns (a' pass), so both partition across workers.
func (t boxTable) build(l int, fPrev [][]float64, rows, workers int) {
	rr := rows * rows
	pa, pb := l/2, l%2
	preds := predLayersTab[l]
	parallelFor(workers, rows, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			row := a * rows
			val, key := t.val[row+a:row+rows], t.key[row+a:row+rows]
			copy(val, fPrev[preds[0]][row+a:row+rows])
			base := int32(preds[0]*rr + row + a)
			for j := range key {
				key[j] = base + int32(j)
			}
			for _, p := range preds[1:] {
				base := int32(p*rr + row + a)
				for j, v := range fPrev[p][row+a : row+rows] {
					if k := base + int32(j); beats(v, k, val[j], key[j]) {
						val[j], key[j] = v, k
					}
				}
			}
		}
	})
	bPass := func() {
		parallelFor(workers, rows, func(lo, hi int) {
			for a := lo; a < hi; a++ {
				row := a * rows
				runMax(t.val[row+a:row+rows], t.key[row+a:row+rows], pb == 0)
			}
		})
	}
	aPass := func() {
		parallelFor(workers, rows, func(lo, hi int) {
			if pa == 1 {
				for a := 1; a < hi; a++ {
					if from := max(lo, a); from < hi {
						t.fold(a*rows+from, (a-1)*rows+from, hi-from)
					}
				}
				return
			}
			for a := hi - 2; a >= 0; a-- {
				if from := max(lo, a+1); from < hi {
					t.fold(a*rows+from, (a+1)*rows+from, hi-from)
				}
			}
		})
	}
	if pa == 1 {
		aPass()
		bPass()
	} else {
		bPass()
		aPass()
	}
}

// runMax replaces every cell of val/key with the tie-rule maximum of
// itself and the cells before it, scanning left to right (forward) or
// right to left.
func runMax(val []float64, key []int32, forward bool) {
	n := len(val)
	key = key[:n]
	j, dir := 0, 1
	if !forward {
		j, dir = n-1, -1
	}
	bv, bk := val[j], key[j]
	for i := 1; i < n; i++ {
		j += dir
		if beats(val[j], key[j], bv, bk) {
			bv, bk = val[j], key[j]
		} else {
			val[j], key[j] = bv, bk
		}
	}
}

// fold replaces each of the n cells from dst with the tie-rule winner
// of itself and the matching cell from src.
func (t boxTable) fold(dst, src, n int) {
	dv, dk := t.val[dst:dst+n], t.key[dst:dst+n]
	sv, sk := t.val[src:src+n], t.key[src:src+n]
	for j := range dv {
		if beats(sv[j], sk[j], dv[j], dk[j]) {
			dv[j], dk[j] = sv[j], sk[j]
		}
	}
}

// MaxGainRectilinearConvex returns the rectilinear-convex region
// maximizing the gain Σ(v − θ·u). The result is reported in the same
// per-column interval form as x-monotone regions (rectilinear-convex
// regions are a subclass); Validate plus the unimodality of the
// endpoints is checked by the tests. The box-table builds and DP-cell
// fills are split across up to workers workers; the result, including
// the backtracked column intervals, is the same for any count.
func MaxGainRectilinearConvex(g *Grid, theta float64, workers int) (XMonotoneRegion, bool, error) {
	if err := g.validate(); err != nil {
		return XMonotoneRegion{}, false, err
	}
	rows, cols := g.Rows(), g.Cols()
	rr := rows * rows
	uf, vf := g.flat()
	gainT := transposedGain(uf, vf, rows, cols, theta)

	w := make([]float64, rr)
	// fPrev/fCur[layer][idx]; layer = pa*2+pb.
	fPrev := make([][]float64, 4)
	fCur := make([][]float64, 4)
	fSlab := make([]float64, 8*rr)
	tabVal := make([]float64, 4*rr)
	tabKey := make([]int32, 4*rr)
	var tables [4]boxTable
	for l := 0; l < 4; l++ {
		fPrev[l] = fSlab[l*rr : (l+1)*rr]
		fCur[l] = fSlab[(4+l)*rr : (5+l)*rr]
		tables[l] = boxTable{val: tabVal[l*rr : (l+1)*rr], key: tabKey[l*rr : (l+1)*rr]}
	}
	// Backtracking: back[(c*4+l)*rr+idx] is the predecessor's key
	// (layer·rr + flat index) extended by cell idx of layer l at column
	// c, or −1 when the region starts there. One recycled slab for the
	// whole call; at grid side 256 it is the DP's dominant memory cost.
	back := backPool.Get(cols * 4 * rr)
	defer backPool.Put(back)

	bestGain := negInfF
	bestCol, bestIdx, bestLayer := -1, -1, 0
	bestPerLA := make([][]cellBest, 4)
	for l := range bestPerLA {
		bestPerLA[l] = make([]cellBest, rows)
	}

	// The four layers' builds and fills are independent given the
	// previous column, so they run concurrently — but never with more
	// goroutines than the caller's worker budget: layerPar layers run
	// at once, each with layerWorkers of the pool. One worker runs
	// everything inline.
	layerPar := max(1, min(workers, 4))
	layerWorkers := max(1, workers/layerPar)

	for c := 0; c < cols; c++ {
		colGain := gainT[c*rows : (c+1)*rows]
		parallelFor(workers, rows, func(lo, hi int) {
			for a := lo; a < hi; a++ {
				run := 0.0
				for b := a; b < rows; b++ {
					run += colGain[b]
					w[a*rows+b] = run
				}
			}
		})
		parallelFor(layerPar, 4, func(llo, lhi int) {
			for l := llo; l < lhi; l++ {
				tab := tables[l]
				if c > 0 {
					tab.build(l, fPrev, rows, layerWorkers)
				}
				cur := fCur[l]
				bk := back[(c*4+l)*rr : (c*4+l+1)*rr]
				perA := bestPerLA[l]
				parallelFor(layerWorkers, rows, func(lo, hi int) {
					for a := lo; a < hi; a++ {
						row := a * rows
						cRow, bRow, wRow := cur[row:row+rows], bk[row:row+rows], w[row:row+rows]
						tv, tk := tab.val[row:row+rows], tab.key[row:row+rows]
						ab := cellBest{gain: negInfF}
						for b := a; b < rows; b++ {
							// A region may start fresh at any column: a
							// one-column region is in every phase.
							v, k := wRow[b], int32(-1)
							if c > 0 && tv[b] > 0 {
								v += tv[b]
								k = tk[b]
							}
							cRow[b], bRow[b] = v, k
							if !ab.found || v > ab.gain {
								ab = cellBest{gain: v, idx: row + b, found: true}
							}
						}
						perA[a] = ab
					}
				})
			}
		})
		// Merge per-layer, per-a bests in (layer, a) order — the fold
		// order of the serial layer-by-layer, (a, b)-ascending scan.
		for l := 0; l < 4; l++ {
			for a := 0; a < rows; a++ {
				if ab := bestPerLA[l][a]; ab.found && ab.gain > bestGain {
					bestGain = ab.gain
					bestCol, bestIdx, bestLayer = c, ab.idx, l
				}
			}
		}
		fPrev, fCur = fCur, fPrev
	}
	if bestCol < 0 {
		return XMonotoneRegion{}, false, nil
	}

	var rev []ColumnInterval
	c, idx, l := bestCol, bestIdx, bestLayer
	for {
		rev = append(rev, ColumnInterval{Col: c, Lo: idx / rows, Hi: idx % rows})
		k := back[(c*4+l)*rr+idx]
		if k < 0 {
			break
		}
		l, idx = int(k)/rr, int(k)%rr
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

// predLayersTab lists, in ascending order, the predecessor phase
// layers a target layer pa*2+pb may extend: a phase can only move
// forward (0 → 1), never back.
var predLayersTab = [numPhases * numPhases][]int{
	{0},          // (pa=0, pb=0)
	{0, 1},       // (pa=0, pb=1)
	{0, 2},       // (pa=1, pb=0)
	{0, 1, 2, 3}, // (pa=1, pb=1)
}

// IsRectilinearConvex reports whether a region's endpoints satisfy the
// valley/hill unimodality that characterizes rectilinear convexity (on
// top of the x-monotone structural invariants).
func (r XMonotoneRegion) IsRectilinearConvex() bool {
	aSwitched := false // a has entered its non-decreasing stage
	bSwitched := false // b has entered its non-increasing stage
	for i := 1; i < len(r.Columns); i++ {
		prev, cur := r.Columns[i-1], r.Columns[i]
		switch {
		case cur.Lo < prev.Lo:
			if aSwitched {
				return false
			}
		case cur.Lo > prev.Lo:
			aSwitched = true
		}
		switch {
		case cur.Hi > prev.Hi:
			if bSwitched {
				return false
			}
		case cur.Hi < prev.Hi:
			bSwitched = true
		}
	}
	return true
}
