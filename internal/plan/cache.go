package plan

import (
	"container/list"
	"sync"

	"optrule/internal/bucketing"
)

// Cache stores sufficient statistics across batches. Implementations
// must be safe for concurrent use; Put1D must MERGE into an existing
// same-generation entry (statistics for one key only ever grow rows,
// never change them), and values handed out are shared read-only.
// PutBounds records the relation row count the boundaries were sampled
// over, so the delta executor can hold appended growth against the
// Section 3.4 bucket-error budget per boundary set.
type Cache interface {
	GetBounds(BoundKey) (bucketing.Boundaries, bool)
	PutBounds(BoundKey, bucketing.Boundaries, int)
	Get1D(GroupKey) (*Stats1D, bool)
	Put1D(GroupKey, *Stats1D) *Stats1D // returns the merged entry
	Get2D(PairKey) (*Stats2D, bool)
	Put2D(PairKey, *Stats2D) *Stats2D
}

// BoundEntry is a cached boundary set plus the relation row count it
// was sampled over — the denominator of the delta executor's appended-
// fraction budget check.
type BoundEntry struct {
	B    bucketing.Boundaries
	Rows int
}

// CacheStats reports a cache's occupancy and traffic.
type CacheStats struct {
	Entries   int
	Bytes     int64
	MaxBytes  int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// LRUCache is the session statistics cache: size-accounted, bounded,
// least-recently-used eviction, safe for concurrent sessions. Bucket
// boundaries, 1-D count groups, and 2-D pair grids share one budget —
// a grid at side 256 costs ~1 MB while a 1000-bucket count group costs
// ~24 KB, so accounting by bytes (not entries) is what keeps a mixed
// workload's working set honest.
type LRUCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[any]*list.Element
	order    *list.List // front = most recently used
	hits     int64
	misses   int64
	evicts   int64
}

// DefaultCacheBytes is the default session cache budget.
const DefaultCacheBytes = 256 << 20

// NewCache creates an LRU statistics cache bounded at maxBytes
// (DefaultCacheBytes when maxBytes is 0; unbounded when negative).
func NewCache(maxBytes int64) *LRUCache {
	if maxBytes == 0 {
		maxBytes = DefaultCacheBytes
	}
	return &LRUCache{
		maxBytes: maxBytes,
		entries:  map[any]*list.Element{},
		order:    list.New(),
	}
}

// entry is one cached statistic with its accounted size and, for a
// 1-D statistic, the solver inputs prepared from it (see Prepared).
type entry struct {
	key   any
	value any
	bytes int64
	prep  *PreparedRows
}

// get returns the entry for key, marking it most recently used.
func (c *LRUCache) get(key any) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// put inserts or replaces the entry for key and evicts LRU entries
// until the cache is within budget.
func (c *LRUCache) put(key any, value any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, value, bytes)
}

// putLocked is put with c.mu already held. The just-inserted entry is
// never evicted, so a statistic larger than the whole budget still
// serves the batch that computed it (it simply will not survive the
// next insertion).
func (c *LRUCache) putLocked(key any, value any, bytes int64) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.bytes += bytes - e.bytes
		e.value, e.bytes, e.prep = value, bytes, nil
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&entry{key: key, value: value, bytes: bytes})
		c.entries[key] = el
		c.bytes += bytes
	}
	if c.maxBytes < 0 {
		return
	}
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		el := c.order.Back()
		e := el.Value.(*entry)
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evicts++
	}
}

// removeLocked drops the entry for key, with c.mu held.
func (c *LRUCache) removeLocked(key any) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.order.Remove(el)
		delete(c.entries, key)
		c.bytes -= e.bytes
	}
}

// GetBounds implements Cache.
func (c *LRUCache) GetBounds(k BoundKey) (bucketing.Boundaries, bool) {
	e, ok := c.GetBoundEntry(k)
	return e.B, ok
}

// GetBoundEntry returns the cached boundaries together with the row
// count they were sampled over.
func (c *LRUCache) GetBoundEntry(k BoundKey) (BoundEntry, bool) {
	v, ok := c.get(k)
	if !ok {
		return BoundEntry{}, false
	}
	return v.(BoundEntry), true
}

// PutBounds implements Cache. rows is the relation's row count at
// sampling time. The entry is charged the boundaries' footprint, cuts
// and locate table both (Boundaries.SizeBytes).
func (c *LRUCache) PutBounds(k BoundKey, b bucketing.Boundaries, rows int) {
	c.put(k, BoundEntry{B: b, Rows: rows}, b.SizeBytes())
}

// Get1D implements Cache.
func (c *LRUCache) Get1D(k GroupKey) (*Stats1D, bool) {
	v, ok := c.get(k)
	if !ok {
		return nil, false
	}
	return v.(*Stats1D), true
}

// Put1D implements Cache: if a same-generation entry already exists, a
// NEW statistic holding the union of its rows and the fresh rows
// replaces it (copy-on-write — published Stats1D values are immutable,
// so batches still reading the old entry race with nothing), and the
// merged entry is returned. The whole check-merge-insert runs in one
// critical section, so concurrent first-time publishers compose
// instead of clobbering each other. Generations never mix: a fresh
// statistic older than the cached entry is discarded (the cached entry
// already absorbed an append the stale partial has not seen), and one
// newer replaces the entry outright.
func (c *LRUCache) Put1D(k GroupKey, s *Stats1D) *Stats1D {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		have := el.Value.(*entry).value.(*Stats1D)
		switch {
		case have.Gen == s.Gen:
			s = have.mergedWith(s)
		case have.Gen > s.Gen:
			c.order.MoveToFront(el)
			return have // stale partial: never merged, never cached
		}
	}
	c.putLocked(k, s, s.sizeBytes())
	return s
}

// Prepared returns the solver inputs prepared from s, kept in the
// cache entry for k so every batch that binds s shares them; each row
// is built on first use (see PreparedRows) and was charged with s by
// Put1D. When the entry no longer holds s — it was evicted, merged or
// folded after the batch bound s — the rows are fresh and kept only by
// the caller.
func (c *LRUCache) Prepared(k GroupKey, s *Stats1D) *PreparedRows {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		if e := el.Value.(*entry); e.value == any(s) {
			if e.prep == nil {
				e.prep = &PreparedRows{s: s}
			}
			return e.prep
		}
	}
	return &PreparedRows{s: s}
}

// Get2D implements Cache.
func (c *LRUCache) Get2D(k PairKey) (*Stats2D, bool) {
	v, ok := c.get(k)
	if !ok {
		return nil, false
	}
	return v.(*Stats2D), true
}

// Put2D implements Cache. Pair grids carry a fixed statistic set, so a
// racing same-generation duplicate insert keeps the first entry (both
// hold identical counts); check and insert share one critical section.
// Generations follow the Put1D rules: stale grids are discarded, newer
// grids replace the entry.
func (c *LRUCache) Put2D(k PairKey, s *Stats2D) *Stats2D {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		have := el.Value.(*entry).value.(*Stats2D)
		if have.Gen >= s.Gen {
			c.order.MoveToFront(el)
			return have
		}
	}
	c.putLocked(k, s, s.sizeBytes())
	return s
}

// CopyBoundsFrom copies every cached boundary entry of src into c,
// least recently used first, so c's LRU order among them follows
// src's. Differential tests use it to pin a control session to the
// boundaries another session sampled, isolating counting behavior from
// sampling position.
func (c *LRUCache) CopyBoundsFrom(src *LRUCache) {
	for _, e := range src.snapshot() {
		if bk, ok := e.key.(BoundKey); ok {
			be := e.value.(BoundEntry)
			c.PutBounds(bk, be.B, be.Rows)
		}
	}
}

// snapshot returns a copy of every cached entry, least recently used
// first, under one critical section.
func (c *LRUCache) snapshot() []entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]entry, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*entry))
	}
	return out
}

// dropForDelta removes the given keys (any mix of bound, group, and
// pair keys) in one critical section. The delta executor drops the
// boundary sets an append pushed past the bucket-error budget and the
// groups and grids counted over them; they are sampled and counted
// again, cold, on next demand.
func (c *LRUCache) dropForDelta(keys []any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		c.removeLocked(k)
	}
}

// SetMaxBytes rebounds the cache (0 restores DefaultCacheBytes,
// negative removes the bound) and evicts least-recently-used entries
// until the new budget holds.
func (c *LRUCache) SetMaxBytes(maxBytes int64) {
	if maxBytes == 0 {
		maxBytes = DefaultCacheBytes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = maxBytes
	if maxBytes < 0 {
		return
	}
	for c.bytes > c.maxBytes && c.order.Len() > 0 {
		el := c.order.Back()
		e := el.Value.(*entry)
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evicts++
	}
}

// Stats returns the cache's current occupancy and traffic counters.
func (c *LRUCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.order.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicts,
	}
}

// Invalidate empties the cache (e.g. after the underlying relation
// changed in place); traffic counters are preserved.
func (c *LRUCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[any]*list.Element{}
	c.order.Init()
	c.bytes = 0
}
