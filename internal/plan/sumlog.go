package plan

import (
	"math"
	"sync"

	"optrule/internal/relation"
)

// Float target sums, serial or parallel. Float addition is
// order-dependent, so partial sums tallied per chunk and folded together
// would differ from the serial scan in the last bits. Instead each chunk
// logs every row's (bucket, target value) pairs in DefaultBatchSize-row
// segments, and one mutex-guarded applier replays the logs strictly in
// chunk order, row order within a chunk, into one sums-only target. That
// is the addition sequence of a scan over the rows in order, so the
// totals are bit-identical at every worker count and chunk plan. A
// serial scan is one chunk whose segments replay as they close.
//
// Segments come from a free list the sumLog owns. The head chunk — the
// lowest one still counting — replays each segment as it closes; a
// chunk ahead of the head keeps its closed segments until every earlier
// chunk is done. Backpressure bounds that window: once limit closed
// segments wait for replay, a chunk ahead of the head blocks before
// closing another until the head advances. The head never blocks, so
// the scan always progresses, and log memory never exceeds one open
// segment per worker plus limit closed ones, whatever the relation
// size. countRange plans target-sum scans in chunks of at most about
// sumChunkRows rows, so in a balanced scan a worker stays within a
// chunk or two of the head and rarely waits.
//
// A failed attempt's open segment is never closed, so a retried chunk
// resumes logging at its first row not yet closed into the log, and a
// chunk whose log is complete logs nothing when it is counted again.
// A retry therefore keeps the addition sequence whatever rows the
// failed attempt had logged.

// sumChunkRows caps the rows per chunk of a parallel scan carrying
// target sums, where the storage layout allows: one v2/v3 block group
// is the smallest chunk.
const sumChunkRows = relation.DefaultGroupRows

// sumPendingPerWorker is the backpressure limit per worker, in closed
// segments waiting for replay: two sumChunkRows chunks.
const sumPendingPerWorker = 2 * sumChunkRows / relation.DefaultBatchSize

// sumLog is one countRange call's ordered replay of float target sums.
type sumLog struct {
	logged []int // positions in the schedule of the target-carrying groups
	limit  int   // closed segments that may wait for replay

	mu      sync.Mutex
	advance sync.Cond     // broadcast when the head moves on
	sums    [][][]float64 // per scheduled group (nil without targets), per target: the padded totals, trash first
	head    int           // lowest chunk whose log is not fully replayed
	pend    [][]*sumSeg   // per chunk: closed segments awaiting replay, in row order
	rows    []int         // per chunk: logged rows in closed segments
	waiting int           // closed segments awaiting replay, over all chunks
	done    []bool        // per chunk: every segment is closed
	free    []*sumSeg
}

// sumSeg is one segment of a chunk's log: for rows [0, n), each logged
// group's bucket (−1, the trash bucket, for a row it counts nowhere)
// and each of its targets' values.
type sumSeg struct {
	n   int
	eff [][]int32     // per logged group
	val [][][]float64 // per logged group, per target
}

// newSumLog returns the ordered replay for a schedule counted in chunks
// chunks by workers workers, or nil when no group carries target sums:
// integer-only schedules build none of this bookkeeping. A scheduled
// group already in set is a cached statistic a refresh is extending
// over an appended tail: each of its targets' totals starts from a
// copy of the cached row, so the replay continues the addition
// sequence that produced it. Every other group starts from zero.
func newSumLog(set *StatsSet, groups []*GroupNeed, chunks, workers int) (*sumLog, error) {
	if !carriesTargets(groups) {
		return nil, nil
	}
	l := &sumLog{
		limit: workers * sumPendingPerWorker,
		sums:  make([][][]float64, len(groups)),
		pend:  make([][]*sumSeg, chunks),
		rows:  make([]int, chunks),
		done:  make([]bool, chunks),
	}
	l.advance.L = &l.mu
	for gi, g := range groups {
		if len(g.Targets) == 0 {
			continue
		}
		b, err := set.boundsOf(g.boundKey())
		if err != nil {
			return nil, err
		}
		seed := set.Groups[g.Key]
		sums := make([][]float64, len(g.Targets))
		for k, t := range g.Targets {
			sums[k] = make([]float64, b.NumBuckets()+1)
			if seed != nil {
				copy(sums[k][1:], seed.Sum[t])
			}
		}
		l.logged = append(l.logged, gi)
		l.sums[gi] = sums
	}
	return l, nil
}

// carriesTargets reports whether any group tallies float target sums.
func carriesTargets(groups []*GroupNeed) bool {
	for _, g := range groups {
		if len(g.Targets) > 0 {
			return true
		}
	}
	return false
}

// segment returns an empty segment, recycled when one is free.
func (l *sumLog) segment() *sumSeg {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free = l.free[:n-1]
		s.n = 0
		return s
	}
	s := &sumSeg{eff: make([][]int32, len(l.logged)), val: make([][][]float64, len(l.logged))}
	for j, gi := range l.logged {
		s.eff[j] = make([]int32, relation.DefaultBatchSize)
		s.val[j] = make([][]float64, len(l.sums[gi]))
		for k := range s.val[j] {
			s.val[j][k] = make([]float64, relation.DefaultBatchSize)
		}
	}
	return s
}

// close hands chunk its next segment in row order (nil for none) and,
// when last, marks the chunk's log complete; every log the head has
// reached is replayed before it returns. A chunk ahead of the head
// first waits while limit closed segments await replay.
func (l *sumLog) close(chunk int, s *sumSeg, last bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s != nil {
		for chunk != l.head && l.waiting >= l.limit {
			l.advance.Wait()
		}
		l.pend[chunk] = append(l.pend[chunk], s)
		l.rows[chunk] += s.n
		l.waiting++
	}
	if last {
		l.done[chunk] = true
	}
	moved := false
	for l.head < len(l.done) {
		for _, s := range l.pend[l.head] {
			l.replay(s)
			l.free = append(l.free, s)
		}
		l.waiting -= len(l.pend[l.head])
		l.pend[l.head] = l.pend[l.head][:0]
		if !l.done[l.head] {
			break
		}
		l.head++
		moved = true
	}
	if moved {
		l.advance.Broadcast()
	}
}

// replay adds one segment into the totals, row by row: the addition
// sequence of a scan over the same rows. Bucket e's total is at e+1,
// the trash bucket's first.
func (l *sumLog) replay(s *sumSeg) {
	for j, vals := range s.val {
		eff := s.eff[j][:s.n]
		for k, val := range vals {
			sk := l.sums[l.logged[j]][k]
			for row, e := range eff {
				sk[e+1] += val[row]
			}
		}
	}
}

// finish marks chunk's log complete without closing another segment:
// the log of a chunk that failed for good, so no later chunk waits on
// it. A nil log has nothing to finish.
func (l *sumLog) finish(chunk int) {
	if l != nil {
		l.close(chunk, nil, true)
	}
}

// chunkLog is a tally state's writer into a sumLog: the state's
// target-carrying groups log their sums instead of adding them.
type chunkLog struct {
	l     *sumLog
	chunk int
	skip  int     // the chunk's rows still to count before the next logged row
	seg   *sumSeg // open segment, nil until the chunk's next logged row
}

// begin points the writer at chunk, resuming after the rows already
// closed into its log; a complete log is not written again.
func (w *chunkLog) begin(chunk int) {
	w.l.mu.Lock()
	defer w.l.mu.Unlock()
	w.chunk, w.skip = chunk, w.l.rows[chunk]
	if w.l.done[chunk] {
		w.skip = math.MaxInt
	}
}

// record logs the rows of a counted batch past the writer's skip. Each
// logged group's buckets are the ones it counted from (see
// execState.buckets), which the kernel has just filled.
func (w *chunkLog) record(st *execState, b *relation.Batch) {
	r0 := min(w.skip, b.Len)
	w.skip -= r0
	for r0 < b.Len {
		if w.seg == nil {
			w.seg = w.l.segment()
		}
		s := w.seg
		n := min(b.Len-r0, relation.DefaultBatchSize-s.n)
		for j, gi := range w.l.logged {
			gs := st.groups[gi]
			copy(s.eff[j][s.n:], st.buckets(gs, b.Len)[r0:r0+n])
			for k, col := range gs.targetCol {
				copy(s.val[j][k][s.n:], b.Numeric[col][r0:r0+n])
			}
		}
		s.n += n
		r0 += n
		if s.n == relation.DefaultBatchSize {
			w.l.close(w.chunk, s, false)
			w.seg = nil
		}
	}
}

// finish closes the chunk's log.
func (w *chunkLog) finish() {
	w.l.close(w.chunk, w.seg, true)
	w.seg = nil
}
