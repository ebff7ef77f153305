package region

import "optrule/internal/fanout"

// Parallel kernel plumbing. Every kernel takes a worker count and runs
// on the one worker pool (internal/fanout); with one worker each fan-out
// below runs inline, so the serial kernel is the same code, not a twin.
// Results are EXACTLY identical for any worker count:
//
//   - the rectangle sweeps hand out r1 values dynamically and in
//     increasing order (the work per r1 shrinks as r1 grows, so static
//     splits would be lopsided). Each worker carries its running best —
//     and with it the solver sweeps' pruning — across the r1 values it
//     claims, so it computes the serial fold over them; the workers'
//     bests then fold by the same comparison, ties to the lowest r1,
//     which is the first best of the serial fold over all r1;
//   - the DPs split each column's interval table into one contiguous
//     span per worker; every cell is a pure function of the previous
//     column's state, so any partition computes the same values and
//     backtracking args, and the best-cell scan folds per-row results
//     in index order.
//
// Candidate comparisons are exact (integer-valued counts, float
// equality on identical arithmetic), so the folds do not depend on how
// the work was partitioned.

// parallelFor runs fn over [0, n) split into one contiguous span per
// worker, on at most n workers. One worker calls fn(0, n) directly:
// the closure that hands the pool's workers their spans would cost an
// allocation per call, and the DPs call this several times per column.
func parallelFor(workers, n int, fn func(lo, hi int)) {
	k := min(workers, n)
	if k <= 1 {
		fn(0, n)
		return
	}
	fanout.Run(k, func(w int) {
		fn(w*n/k, (w+1)*n/k)
	})
}

// run sweeps every r1 in [0, rows) on up to workers workers and
// returns the best rectangle.
func (s rectSweep) run(workers int) (Rect, bool, error) {
	ws := s.newWorkers(max(1, min(workers, s.rows)))
	fanout.Each(len(ws), s.rows, func(w, r1 int) {
		if sw := &ws[w]; sw.err == nil {
			s.row(sw, r1)
		}
	})
	return s.fold(ws)
}

// fold returns the best of the workers' bests, ties to the lowest r1:
// the first best of the serial fold, since each worker's best is the
// first best of the r1 values it claimed.
func (s rectSweep) fold(ws []sweepWorker) (Rect, bool, error) {
	var best *sweepWorker
	for w := range ws {
		sw := &ws[w]
		if sw.err != nil {
			return Rect{}, false, sw.err
		}
		if sw.found && (best == nil || s.better(sw.best, best.best) ||
			!s.better(best.best, sw.best) && sw.best.R1 < best.best.R1) {
			best = sw
		}
	}
	if best == nil {
		return Rect{}, false, nil
	}
	return best.best, true, nil
}
