package plan

import (
	"context"
	"sync/atomic"
	"time"
)

// The counting executor's recovery policy. countRange counts every
// chunk in its one in-process pool, and Defaults.Scatter decides what a
// failed chunk costs: with MaxAttempts > 1 a failed or timed-out
// attempt is retried after a capped exponential backoff, by the slot
// that failed it, before that slot takes another chunk. The slot drops
// its tally state, which the failed attempt left partial, and requeues
// every other chunk that state had folded, so each chunk still counts
// exactly once into the merged totals. Float target sums resume
// logging at the retried chunk's first row not yet closed into the
// sumLog, so they keep the serial scan's addition order. Mined rules
// are therefore identical whatever fails and is retried. A chunk that
// spends its attempts fails the scan.

// Retry backoff: the delay before a chunk's first retry, doubled for
// each further retry up to maxRetryBackoff.
const (
	retryBackoff    = 2 * time.Millisecond
	maxRetryBackoff = 250 * time.Millisecond
)

// ScatterStats counts the counting executor's recovery actions, written
// atomically by the pool. Tests and examples read it to prove faults
// were actually exercised.
type ScatterStats struct {
	Retries  atomic.Int64 // failed attempts that were retried
	Timeouts atomic.Int64 // attempts cut by TaskTimeout
}

// ScatterConfig is the counting executor's per-chunk retry policy, not
// a speedup: Defaults.PEs sets the worker count. The zero value counts
// every chunk once, and a failed chunk fails the scan.
type ScatterConfig struct {
	// MaxAttempts is the per-chunk attempt budget; 0 or 1 means one
	// attempt.
	MaxAttempts int
	// TaskTimeout bounds one attempt of one chunk, observed between
	// batches; a chunk waiting for the target-sum replay spends it too.
	// 0 means no per-attempt deadline.
	TaskTimeout time.Duration
	// Stats, when non-nil, receives the recovery counters.
	Stats *ScatterStats
}

// backoff is the delay before a chunk's retry after its failures-th
// failed attempt.
func backoff(failures int) time.Duration {
	d := retryBackoff
	for ; failures > 1 && d < maxRetryBackoff; failures-- {
		d *= 2
	}
	return min(d, maxRetryBackoff)
}

// sleepCtx waits for d, or until ctx is done; it reports whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
