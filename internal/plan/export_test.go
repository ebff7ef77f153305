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
// counted rows into the same bucket-major records, so merge and publish
// are kernel-agnostic; TestKernelWideBooleansMatchBruteForce checks the
// records' derivation against plain per-row counts. Target sums are
// logged (see sumLog): a filtered target-carrying group's per-row
// bucket is written into its effective-index pass for countBatch to
// log; an unfiltered one logs its locate pass.
func (st *execState) countBatchRef(b *relation.Batch) {
	n := b.Len
	for _, gs := range st.groups {
		gs.total += n
		idx := st.idx[gs.loc][:n]
		col := b.Numeric[gs.col]
		var mask []bool
		if gs.combo >= 0 {
			mask = st.masks[st.combos[gs.combo].maskIdx][:n]
		}
		var eff []int32 // a filtered group's logged buckets; −1 unless counted
		if len(gs.targetCol) > 0 && gs.combo >= 0 {
			eff = st.combos[gs.combo].eff[:n]
			for row := range eff {
				eff[row] = -1
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
			if gs.ext != nil {
				x := col[row]
				if x < gs.ext[i+1][0] {
					gs.ext[i+1][0] = x
				}
				if x > gs.ext[i+1][1] {
					gs.ext[i+1][1] = x
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
				gs.n[(i+1)*gs.stride+l.off+code]++
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
		extA, extB := ps.extA, ps.extB
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
			cell := ((ri+1)*(cols+1) + rj + 1) << 1
			if obj[row] == want {
				cell |= 1
			}
			ps.n[cell]++
			a := colA[row]
			if a < extA[ri+1][0] {
				extA[ri+1][0] = a
			}
			if a > extA[ri+1][1] {
				extA[ri+1][1] = a
			}
			bv := colB[row]
			if bv < extB[rj+1][0] {
				extB[rj+1][0] = bv
			}
			if bv > extB[rj+1][1] {
				extB[rj+1][1] = bv
			}
		}
	}
}
