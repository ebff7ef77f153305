package plan

import (
	"context"

	"optrule/internal/relation"
)

// withRefKernel returns a context under which every counting scan —
// serial, parallel, delta, scattered and the direct fallback — runs
// the reference kernel countBatchRef instead of the vectorized one.
func withRefKernel(ctx context.Context) context.Context {
	return context.WithValue(ctx, kernelKey{}, (*execState).countBatchRef)
}

// runRef is Run on the reference kernel.
func runRef(rel relation.Relation, d Defaults, cache Cache, req *Requirements) (*StatsSet, error) {
	return RunContext(withRefKernel(context.Background()), rel, d, cache, req)
}

// countBatchRef is the reference per-tuple kernel: one branchy row
// loop per group and pair, the differential baseline the vectorized
// kernel is pinned against. It computes each row's lane codes from the
// raw Boolean columns, one condition at a time, and scatters only the
// counted rows into the same lane tables, so merge and publish are
// kernel-agnostic; TestKernelWideBooleansMatchBruteForce checks the
// tables' derivation against plain per-row counts. Target sums are
// logged (see sumLog): each target-carrying group's per-row bucket is
// written into the group's effective-index pass for countBatch to log.
func (st *execState) countBatchRef(b *relation.Batch) {
	n := b.Len
	for _, gs := range st.groups {
		gs.total += n
		idx := st.idx[gs.loc][:n]
		col := b.Numeric[gs.col]
		var mask []bool
		if gs.maskIdx >= 0 {
			mask = st.masks[gs.maskIdx][:n]
		}
		var eff []int32 // logged buckets; the trash slot unless counted
		if len(gs.targetCol) > 0 {
			c := st.combos[gs.combo]
			if cap(c.eff) < n {
				c.eff = make([]int32, n)
			}
			eff = c.eff[:n]
			for row := range eff {
				eff[row] = int32(gs.m)
			}
		}
		for row := 0; row < n; row++ {
			if mask != nil && !mask[row] {
				continue
			}
			i := int(idx[row])
			if i < 0 { // NaN driver: belongs to no bucket
				gs.nans++
				continue
			}
			if eff != nil {
				eff[row] = int32(i)
			}
			if gs.minv != nil {
				x := col[row]
				if x < gs.minv[i] {
					gs.minv[i] = x
				}
				if x > gs.maxv[i] {
					gs.maxv[i] = x
				}
			}
			for li, l := range gs.lanes {
				code := 0
				for k := uint(0); k < l.bits; k++ {
					bc := gs.need.Bools[li*laneBits+int(k)]
					if b.Bool[st.boolPos[bc.Attr]][row] == bc.Want {
						code |= 1 << k
					}
				}
				l.n[i<<l.bits|code]++
			}
		}
	}
	for _, ps := range st.pairs {
		ia := st.idx[ps.locA][:n]
		ib := st.idx[ps.locB][:n]
		colA := b.Numeric[ps.colA]
		colB := b.Numeric[ps.colB]
		obj := b.Bool[ps.objCol]
		cols := ps.cols
		minA, maxA := ps.minA, ps.maxA
		minB, maxB := ps.minB, ps.maxB
		want := ps.need.Obj.Want
		for row := 0; row < n; row++ {
			ri := int(ia[row])
			if ri < 0 {
				continue
			}
			rj := int(ib[row])
			if rj < 0 {
				continue
			}
			cell := (ri*cols + rj) << 1
			if obj[row] == want {
				cell |= 1
			}
			ps.n[cell]++
			a := colA[row]
			if a < minA[ri] {
				minA[ri] = a
			}
			if a > maxA[ri] {
				maxA[ri] = a
			}
			bv := colB[row]
			if bv < minB[rj] {
				minB[rj] = bv
			}
			if bv > maxB[rj] {
				maxB[rj] = bv
			}
		}
	}
}
