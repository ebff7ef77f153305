package relation

// Zone-map-aware scan scheduling. Static equal-row segmentation
// balances a parallel scan only when every row costs
// the same to read — exactly what stops being true once v3 zone maps
// prune block groups: a worker whose segment happens to hold the
// matching value range decodes every block while its neighbors skip
// theirs and go idle. The scheduler below fixes the skew at its
// source: the storage layer prices each block-group-aligned atom from
// its directory (pruned groups cost ~0, surviving groups their
// physical encoded bytes), PlanScanChunks packs the atoms into more
// chunks than workers with roughly equal estimated cost, and the
// workers claim chunks dynamically off a shared queue — cheap chunks
// drain fast, expensive ones spread across whoever is free. Pricing
// from the directory pays a second dividend: a chunk made entirely of
// zone-refuted groups (ScanChunk.Pruned) needs no scan at all — its
// rows fold straight into the skip accounting — where the static split
// walks every such group through the scan machinery just to skip it.
//
// Determinism contract: the chunk list is a pure function of the
// relation's directory, the column set, the predicate, and the worker
// count — it does NOT depend on timing. Integer counts and extremes
// merge exactly in any order, so every such statistic is bit-identical
// across worker counts, placements, and steal orders however callers
// group the chunks into partials; float accumulations depend on the
// fold and stay subject to the serial-scan rule.

// ScanChunk is one dynamically claimable unit of a parallel scan:
// global rows [Start, End), with the scheduler's cost estimate (v3:
// physical encoded bytes the scan will read after zone-map pruning;
// elsewhere: row count). Pruned marks a chunk whose every block group
// the zone maps refute under the planning predicate: a pruned scan of
// it is guaranteed to deliver zero batches, so a scheduler may settle
// it without issuing the scan at all — the chunk's whole contribution
// is End-Start skipped rows. Static segmentation has no such shortcut;
// it pays the per-group scan machinery even for regions the directory
// already proved empty.
type ScanChunk struct {
	Start, End int
	Cost       int64
	Pruned     bool
}

// BlockCostModel is the pricing method of Relation (see
// Relation.ScanCosts).
type BlockCostModel interface {
	ScanCosts(cols ColumnSet, pred *Predicate) (cuts []int, costs []int64)
}

// scanChunksPerPE is the steal-slack factor: the planner aims for this
// many chunks per worker, so a worker that drew only pruned groups can
// claim more work instead of idling, while per-chunk state stays
// bounded.
const scanChunksPerPE = 4

// ScanCosts implements Relation for single-file relations. v3
// files price each block group as the encoded payload bytes of the
// selected columns — zero when the group's zone maps refute pred — so
// the estimate is exactly what BytesRead will charge for scanning the
// group. v2 files have block groups but no directory bytes or zone
// maps; their groups are priced uniformly by row count, which degrades
// the planner to equal-row packing with steal slack. v1 row-major
// files return nil (no preferred atoms).
func (dr *DiskRelation) ScanCosts(cols ColumnSet, pred *Predicate) ([]int, []int64) {
	groups := dr.numGroups
	if groups == 0 {
		return nil, nil
	}
	cuts := make([]int, groups+1)
	costs := make([]int64, groups)
	for g := 0; g < groups; g++ {
		cuts[g] = g * dr.groupRows
		gRows := dr.groupRows
		if g == groups-1 {
			gRows = dr.numRows - cuts[g]
		}
		if dr.version == DiskFormatV2 {
			costs[g] = int64(gRows)
			continue
		}
		if pred != nil && dr.v3GroupPruned(g, pred) {
			continue // zone-refuted: the scan skips it unread, cost 0
		}
		var c int64
		for _, a := range cols.Numeric {
			c += int64(dr.numBlock(g, dr.numPos[a]).encLen)
		}
		for _, a := range cols.Bool {
			c += int64(dr.boolBlock(g, dr.boolPos[a]).encLen)
		}
		if c == 0 {
			// Degenerate column set: keep surviving groups visibly more
			// expensive than pruned ones so packing still spreads them.
			c = int64(gRows)
		}
		costs[g] = c
	}
	cuts[groups] = dr.numRows
	return cuts, costs
}

// ScanCosts implements Relation for sharded relations: the per-shard
// atom lists concatenated in global row order, each shard's cuts
// translated by its global start, so shard boundaries are always cuts.
// A shard that prices nothing (v1) contributes atoms of
// DefaultGroupRows rows, each priced by its row count as v2 groups are.
func (sr *ShardedRelation) ScanCosts(cols ColumnSet, pred *Predicate) ([]int, []int64) {
	ss := sr.cur.Load()
	cuts := []int{0}
	var costs []int64
	for i, shard := range ss.shards {
		base, n := ss.starts[i], shard.NumTuples()
		sCuts, sCosts := shard.ScanCosts(cols, pred)
		if sCuts == nil {
			for lo := 0; lo < n; lo += DefaultGroupRows {
				hi := min(lo+DefaultGroupRows, n)
				cuts = append(cuts, base+hi)
				costs = append(costs, int64(hi-lo))
			}
			continue
		}
		for j, c := range sCosts {
			cuts = append(cuts, base+sCuts[j+1])
			costs = append(costs, c)
		}
	}
	if len(costs) == 0 {
		return nil, nil
	}
	return cuts, costs
}

// PlanScanChunks partitions [0, NumTuples()) into storage-aligned
// chunks of roughly equal estimated scan cost for pes workers to claim
// dynamically. When the relation prices its atoms (ScanCosts),
// consecutive atoms are packed greedily until a chunk holds its fair
// share of the total estimate — zone-pruned groups are effectively
// free, so a chunk covering a pruned region spans many more rows than
// one covering surviving groups. Relations whose rows all cost the
// same (nil costs: memory relations, v1 files) get pes equal-row
// chunks, each priced by its row count.
//
// The plan is deterministic: same relation state, columns, predicate,
// and pes yield the same chunks. len(result) >= 1 for non-empty
// relations; chunks are contiguous, non-empty, and cover every row.
func PlanScanChunks(rel Relation, pes int, cols ColumnSet, pred *Predicate) []ScanChunk {
	n := rel.NumTuples()
	if n == 0 {
		return nil
	}
	if pes < 1 {
		pes = 1
	}
	cuts, costs := rel.ScanCosts(cols, pred)
	if cuts == nil {
		chunks := make([]ScanChunk, 0, pes)
		for p := 0; p < pes; p++ {
			if lo, hi := p*n/pes, (p+1)*n/pes; hi > lo {
				chunks = append(chunks, ScanChunk{Start: lo, End: hi, Cost: int64(hi - lo)})
			}
		}
		return chunks
	}
	var total int64
	surviving := 0
	for _, c := range costs {
		total += c
		if c > 0 {
			surviving++
		}
	}
	target := pes * scanChunksPerPE
	if target > surviving {
		target = surviving
	}
	if target < 1 {
		target = 1
	}
	per := total / int64(target)
	if per < 1 {
		per = 1 // all-pruned scans collapse into one free chunk
	}
	// Maximal runs of zero-cost atoms become dedicated Pruned chunks
	// (cost 0 means the zone maps refuted the atom outright — see
	// ScanCosts — so the run is provably empty under pred and a
	// scheduler can settle it scan-free); surviving runs are packed
	// greedily to the per-chunk share.
	chunks := make([]ScanChunk, 0, target+2)
	for g := 0; g < len(costs); {
		if costs[g] == 0 {
			r := g
			for r < len(costs) && costs[r] == 0 {
				r++
			}
			chunks = append(chunks, ScanChunk{Start: cuts[g], End: cuts[r], Pruned: true})
			g = r
			continue
		}
		start, acc := cuts[g], int64(0)
		for g < len(costs) && costs[g] != 0 {
			acc += costs[g]
			g++
			if acc >= per {
				chunks = append(chunks, ScanChunk{Start: start, End: cuts[g], Cost: acc})
				start, acc = cuts[g], 0
			}
		}
		if cuts[g] > start {
			chunks = append(chunks, ScanChunk{Start: start, End: cuts[g], Cost: acc})
		}
	}
	return chunks
}
