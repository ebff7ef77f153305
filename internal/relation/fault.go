package relation

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Deterministic storage fault injection. FaultRelation wraps any
// backend — memory, v1/v2/v3 disk, sharded — and injects failures into
// its scan surface so the layers above (prefetchers, shard pipelines,
// the plan executor and its per-chunk retries) can be driven through
// their error paths on demand. Injection is seed-driven and
// deterministic: which scans fail is a pure function of the config and
// each scan's ordinal (a process-wide atomic counter per wrapper), so a
// failing test case replays exactly.
//
// Faults are injected at the consumer boundary — inside the scan
// callback stream, after the configured number of rows has been
// delivered — which exercises BOTH directions at once: the caller sees
// a mid-stream storage error, and the wrapped backend sees a consumer
// error mid-scan (the path that tears down read-ahead prefetchers).

// ErrInjected is the sentinel wrapped by every injected fault, so tests
// can assert errors.Is(err, ErrInjected) through any number of layers.
var ErrInjected = errors.New("relation: injected fault")

// FaultConfig selects which scans fail and how. A scan is selected when
// its 1-based ordinal is listed in FailScans, is a multiple of
// FailEvery, or draws below FailProb from the deterministic per-ordinal
// stream seeded by Seed — subject to the MaxFaults budget.
type FaultConfig struct {
	// Seed drives the FailProb stream. Two wrappers with equal configs
	// select the same ordinals.
	Seed int64
	// FailProb is the per-scan failure probability, in [0, 1].
	FailProb float64
	// FailScans lists 1-based scan ordinals that fail.
	FailScans []int
	// FailEvery selects every Nth scan (ordinals N, 2N, …) when > 0.
	FailEvery int
	// FailAfterRows is how many rows a selected scan delivers before the
	// injected error — 0 fails before the first batch, mimicking an open
	// or header read error; a mid-relation value exercises mid-stream
	// teardown.
	FailAfterRows int
	// MaxFaults bounds the total number of injected scan failures
	// (0 = unlimited). Transient-fault tests use it to guarantee that
	// retries eventually see a healthy scan.
	MaxFaults int
	// Stall is slept before a selected scan delivers its fault (or its
	// first batch, when StallOnly is set) — long enough a stall trips
	// the counting executor's per-attempt timeout.
	Stall time.Duration
	// StallOnly turns selected scans into slow-but-successful ones:
	// they stall, then complete normally without error.
	StallOnly bool
	// ShortBatches caps every delivered batch at this many rows,
	// re-chunking the stream (0 = off). It applies to all scans, not
	// just selected ones, and injects no errors by itself.
	ShortBatches int
	// FailClose makes Close return an injected error (after delegating
	// to the wrapped relation's own Close).
	FailClose bool
}

// FaultRelation wraps a Relation with deterministic fault injection.
// It forwards the whole Relation contract to the wrapped value, so the
// planner sees the wrapped relation's plan, and every scan method —
// Scan, ScanRange, ScanRangePruned — draws one scan ordinal. Byte
// accounting and Close reach the wrapped value when it has them.
type FaultRelation struct {
	inner Relation
	cfg   FaultConfig

	scans    atomic.Int64 // scan ordinal counter
	injected atomic.Int64 // injected scan failures so far
}

// NewFaultRelation wraps rel with the given fault plan.
func NewFaultRelation(rel Relation, cfg FaultConfig) *FaultRelation {
	return &FaultRelation{inner: rel, cfg: cfg}
}

// Inner returns the wrapped relation.
func (fr *FaultRelation) Inner() Relation { return fr.inner }

// Scans returns the number of scans started through the wrapper.
func (fr *FaultRelation) Scans() int64 { return fr.scans.Load() }

// Injected returns the number of scan failures injected so far.
func (fr *FaultRelation) Injected() int64 { return fr.injected.Load() }

// Schema implements Relation.
func (fr *FaultRelation) Schema() Schema { return fr.inner.Schema() }

// NumTuples implements Relation.
func (fr *FaultRelation) NumTuples() int { return fr.inner.NumTuples() }

// hash01 maps (seed, ordinal) to a uniform [0,1) draw via a split-mix
// style mixer — cheap, stateless, and stable across runs.
func hash01(seed, ord int64) float64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(ord)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// selects reports whether the scan with the given ordinal is a fault
// candidate (before the MaxFaults budget is applied).
func (fr *FaultRelation) selects(ord int64) bool {
	for _, s := range fr.cfg.FailScans {
		if int64(s) == ord {
			return true
		}
	}
	if fr.cfg.FailEvery > 0 && ord%int64(fr.cfg.FailEvery) == 0 {
		return true
	}
	if fr.cfg.FailProb > 0 && hash01(fr.cfg.Seed, ord) < fr.cfg.FailProb {
		return true
	}
	return false
}

// beginScan assigns the next scan ordinal and charges the fault budget,
// returning the per-scan injector.
func (fr *FaultRelation) beginScan() *FaultScanner {
	ord := fr.scans.Add(1)
	fs := &FaultScanner{cfg: &fr.cfg, ord: ord}
	if fr.selects(ord) && !fr.cfg.StallOnly {
		// Charge the budget with a CAS loop so concurrent scans never
		// overdraw it: exactly MaxFaults failures are injected, then the
		// wrapper goes permanently healthy.
		for {
			n := fr.injected.Load()
			if fr.cfg.MaxFaults > 0 && n >= int64(fr.cfg.MaxFaults) {
				return fs
			}
			if fr.injected.CompareAndSwap(n, n+1) {
				fs.faulty = true
				return fs
			}
		}
	}
	if fr.selects(ord) {
		fs.faulty = true // StallOnly: selected, but will not error
	}
	return fs
}

// FaultScanner injects one scan's faults into a callback stream: it
// stalls, re-chunks batches, and cuts the stream with an injected error
// at the configured row. FaultRelation creates one per scan; tests
// composing custom scan paths can build one with NewFaultScanner and
// drive it directly via Wrap.
type FaultScanner struct {
	cfg    *FaultConfig
	ord    int64
	faulty bool

	rows    int
	stalled bool
	view    Batch // reused sub-batch header for re-chunked delivery
}

// NewFaultScanner returns an injector for one scan under cfg. faulty
// marks the scan as selected for failure (or stalling, under
// StallOnly).
func NewFaultScanner(cfg *FaultConfig, ord int64, faulty bool) *FaultScanner {
	return &FaultScanner{cfg: cfg, ord: ord, faulty: faulty}
}

// errAt builds the injected mid-scan error.
func (fs *FaultScanner) errAt() error {
	return fmt.Errorf("scan %d failed after %d rows: %w", fs.ord, fs.rows, ErrInjected)
}

// stall sleeps the configured stall once per scan.
func (fs *FaultScanner) stall() {
	if fs.cfg.Stall > 0 && !fs.stalled {
		fs.stalled = true
		time.Sleep(fs.cfg.Stall)
	}
}

// budget returns how many more rows the scan may deliver before its
// injected failure, or MaxInt when the scan is healthy.
func (fs *FaultScanner) budget() int {
	if !fs.faulty || fs.cfg.StallOnly {
		return math.MaxInt
	}
	if left := fs.cfg.FailAfterRows - fs.rows; left > 0 {
		return left
	}
	return 0
}

// Wrap decorates a scan callback with the scan's injections. The
// returned callback delivers (possibly re-chunked, possibly truncated)
// batches to fn and returns the injected error at the fault row.
func (fs *FaultScanner) Wrap(fn func(*Batch) error) func(*Batch) error {
	return func(b *Batch) error {
		if fs.faulty {
			fs.stall()
			if fs.budget() == 0 {
				return fs.errAt()
			}
		}
		chunk := b.Len
		if fs.cfg.ShortBatches > 0 && fs.cfg.ShortBatches < chunk {
			chunk = fs.cfg.ShortBatches
		}
		if budget := fs.budget(); budget < chunk {
			chunk = budget
		}
		if chunk == b.Len {
			fs.rows += b.Len
			err := fn(b)
			if err == nil && fs.budget() == 0 {
				err = fs.errAt()
			}
			return err
		}
		// Deliver the batch in sub-views. The view shares the batch's
		// column backing (callbacks must not retain it anyway), so
		// re-chunking allocates nothing per call beyond the first.
		v := &fs.view
		if cap(v.Numeric) < len(b.Numeric) {
			v.Numeric = make([][]float64, len(b.Numeric))
		}
		if cap(v.Bool) < len(b.Bool) {
			v.Bool = make([][]bool, len(b.Bool))
		}
		v.Numeric = v.Numeric[:len(b.Numeric)]
		v.Bool = v.Bool[:len(b.Bool)]
		for off := 0; off < b.Len; {
			n := b.Len - off
			if fs.cfg.ShortBatches > 0 && fs.cfg.ShortBatches < n {
				n = fs.cfg.ShortBatches
			}
			budget := fs.budget()
			if budget == 0 {
				return fs.errAt()
			}
			if budget < n {
				n = budget
			}
			for k := range b.Numeric {
				v.Numeric[k] = b.Numeric[k][off : off+n]
			}
			for k := range b.Bool {
				v.Bool[k] = b.Bool[k][off : off+n]
			}
			v.Len = n
			fs.rows += n
			if err := fn(v); err != nil {
				return err
			}
			off += n
		}
		if fs.budget() == 0 {
			return fs.errAt()
		}
		return nil
	}
}

// finish settles scans whose fault row was never reached because the
// stream ended first (e.g. FailAfterRows beyond the scanned range):
// the scan still fails, so a selected scan never silently succeeds.
func (fs *FaultScanner) finish(err error) error {
	if err != nil {
		return err
	}
	if fs.faulty && !fs.cfg.StallOnly {
		if fs.rows == 0 {
			fs.stall()
		}
		return fs.errAt()
	}
	return nil
}

// Scan implements Relation.
func (fr *FaultRelation) Scan(cols ColumnSet, fn func(*Batch) error) error {
	return fr.faulted(fn, func(fn func(*Batch) error) error { return fr.inner.Scan(cols, fn) })
}

// ScanRange implements Relation.
func (fr *FaultRelation) ScanRange(start, end int, cols ColumnSet, fn func(*Batch) error) error {
	return fr.faulted(fn, func(fn func(*Batch) error) error { return fr.inner.ScanRange(start, end, cols, fn) })
}

// ScanRangePruned implements Relation.
func (fr *FaultRelation) ScanRangePruned(start, end int, cols ColumnSet, pred *Predicate, skip func(rows int) error, fn func(*Batch) error) error {
	return fr.faulted(fn, func(fn func(*Batch) error) error {
		return fr.inner.ScanRangePruned(start, end, cols, pred, skip, fn)
	})
}

// faulted runs one scan of the wrapped relation under the next scan
// ordinal's injections: scan issues it with the wrapped callback.
func (fr *FaultRelation) faulted(fn func(*Batch) error, scan func(func(*Batch) error) error) error {
	fs := fr.beginScan()
	if fs.faulty && !fs.cfg.StallOnly && fs.cfg.FailAfterRows <= 0 {
		fs.stall()
		return fs.errAt()
	}
	return fs.finish(scan(fs.Wrap(fn)))
}

// ReadNumericPoints implements Relation. Point reads are never
// faulted: the sampling pass must stay deterministic so a faulted
// run's boundaries — and therefore its rules — stay comparable to the
// healthy run's.
func (fr *FaultRelation) ReadNumericPoints(attr int, rows []int, out []float64) error {
	return fr.inner.ReadNumericPoints(attr, rows, out)
}

// ScanCosts implements Relation: a faulted relation plans the chunks of
// the relation it wraps.
func (fr *FaultRelation) ScanCosts(cols ColumnSet, pred *Predicate) ([]int, []int64) {
	return fr.inner.ScanCosts(cols, pred)
}

// BytesRead delegates to the wrapped relation (0 for backends without
// byte accounting).
func (fr *FaultRelation) BytesRead() int64 {
	type reader interface{ BytesRead() int64 }
	if br, ok := fr.inner.(reader); ok {
		return br.BytesRead()
	}
	return 0
}

// ResetBytesRead delegates to the wrapped relation when supported.
func (fr *FaultRelation) ResetBytesRead() {
	type resetter interface{ ResetBytesRead() }
	if rr, ok := fr.inner.(resetter); ok {
		rr.ResetBytesRead()
	}
}

// Close delegates to the wrapped relation when it has a Close, then
// injects the configured Close error.
func (fr *FaultRelation) Close() error {
	var err error
	type closer interface{ Close() error }
	if c, ok := fr.inner.(closer); ok {
		err = c.Close()
	}
	if fr.cfg.FailClose {
		closeErr := fmt.Errorf("close failed: %w", ErrInjected)
		if err == nil {
			err = closeErr
		}
	}
	return err
}
