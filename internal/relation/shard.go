package relation

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Sharded relations: one LOGICAL relation backed by an ordered list of
// shard files (each a self-contained v1, v2, or v3 relation file) plus a
// small versioned manifest. The global row order is the concatenation
// of the shards in manifest order, so a sharded relation holding the
// same tuple stream as a single file is indistinguishable to the miner
// — samples, boundaries, counts, and therefore rules are identical.
//
// Sharding is the horizontal decomposition that breaks the single-file
// / single-spindle ceiling: each shard can live on its own disk (or
// eventually its own node), each shard is scanned through its own file
// handle one window at a time, and the parallel counting
// executor splits work at shard boundaries so its workers never contend
// for one file. Per-shard state stays bounded no matter how large the
// logical relation grows.
//
// Manifest format (text, line-oriented, version negotiated):
//
//	OPTSHARD 1
//	shard <rows> <path>
//	shard <rows> <path>
//	...
//
// Paths are resolved relative to the manifest's directory unless
// absolute; <rows> is the shard's declared tuple count and is
// cross-checked against the shard file's own header on open, so a
// manifest that drifted from its shards fails loudly instead of
// serving misaligned global row numbers. Blank lines and lines
// starting with '#' are ignored. All shards must share one schema
// (same attribute names and kinds, in the same order); shards may mix
// on-disk format versions freely — a relation can be grown with v2 or
// v3 shards while old v1 shards stay in place.
//
// The manifest's committed text ends at its first NUL byte, or at the
// end of the file when it holds none. A grow (AppendToSharded) writes
// its new `shard` lines in place past the committed end: staged with a
// NUL in place of their first byte, committed by writing that byte (see
// appendManifest). Whatever follows the committed end is an
// uncommitted staged tail that every reader ignores and the next grow
// overwrites. A grow never rewrites the committed text, so its
// comments, blank lines and custom shard names survive.

const (
	// ShardManifestVersion is the current manifest format version.
	ShardManifestVersion = 1
	// shardManifestMagic is the first token of every manifest.
	shardManifestMagic = "OPTSHARD"
	// maxManifestBytes bounds manifest reads so a hostile file cannot
	// demand an absurd allocation.
	maxManifestBytes = 1 << 20
	// maxManifestShards bounds the declared shard count.
	maxManifestShards = 1 << 16
)

// DataRelation is what the disk-backed backends — the single-file
// DiskRelation and the ShardedRelation — add to Relation, so callers
// (cmd/optdata, experiments) can treat either uniformly: the counted
// BytesRead cost model and resource release.
type DataRelation interface {
	Relation
	BytesRead() int64
	ResetBytesRead()
	Close() error
}

var (
	_ DataRelation = (*DiskRelation)(nil)
	_ DataRelation = (*ShardedRelation)(nil)
)

// ShardedRelation is a Relation backed by an ordered list of shard
// files; see the package comment above for the manifest format and the
// global row-order contract. Open one with OpenSharded.
//
// The shard list lives in an immutable snapshot (shardSet) swapped
// atomically by Reopen: every operation loads the snapshot once and
// works against it, so an open relation can pick up shards appended to
// the manifest (by AppendToSharded) without invalidating in-flight
// scans — appends only ever extend the shard list, so a scan bounded
// by an older snapshot's row count stays valid against any newer one.
type ShardedRelation struct {
	manifestPath string
	schema       Schema
	// cur is the current immutable shard-set snapshot. Readers load it
	// once per operation; Reopen swaps in a new one.
	cur atomic.Pointer[shardSet]
	// epoch counts snapshot swaps that added rows; see Epoch.
	epoch atomic.Int64
	// reopenMu serializes Reopen (and orders it against Close) without
	// blocking scans, which only read the snapshot pointer.
	reopenMu sync.Mutex

	// ops mirrors DiskRelation.ops: scans and point reads hold the read
	// lock so Close can refuse with ErrBusy instead of tearing down
	// shard mappings under an in-flight operation.
	ops sync.RWMutex
}

// shardSet is one immutable snapshot of a sharded relation's backing
// files. Never mutated after publication; Reopen builds a fresh one
// (sharing the already-open *DiskRelation prefix) and swaps the
// pointer.
type shardSet struct {
	shards  []*DiskRelation
	paths   []string             // resolved shard paths, manifest order
	entries []shardManifestEntry // parsed manifest lines
	starts  []int                // starts[i] = global row of shard i's first tuple; len(shards)+1 entries
	numRows int
}

// shardManifestEntry is one parsed manifest line, its path resolved
// against the manifest's directory.
type shardManifestEntry struct {
	rows int
	path string
}

// parseShardManifest parses and validates manifest text (not the shard
// files themselves). dir is the manifest's directory, against which
// relative shard paths are resolved.
func parseShardManifest(name string, data []byte, dir string) ([]shardManifestEntry, error) {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	if !sc.Scan() {
		return nil, fmt.Errorf("relation: %s: empty shard manifest", name)
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 || header[0] != shardManifestMagic {
		return nil, fmt.Errorf("relation: %s is not a shard manifest", name)
	}
	version, err := strconv.Atoi(header[1])
	if err != nil || version != ShardManifestVersion {
		return nil, fmt.Errorf("relation: %s: unsupported shard manifest version %q", name, header[1])
	}
	var entries []shardManifestEntry
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// "shard <rows> <path>"; the path is the remainder of the line, so
		// it may contain spaces.
		fields := strings.SplitN(text, " ", 3)
		if len(fields) != 3 || fields[0] != "shard" {
			return nil, fmt.Errorf("relation: %s:%d: malformed manifest line %q", name, line, text)
		}
		rows, err := strconv.Atoi(fields[1])
		if err != nil || rows < 0 {
			return nil, fmt.Errorf("relation: %s:%d: bad shard row count %q", name, line, fields[1])
		}
		path := strings.TrimSpace(fields[2])
		if path == "" {
			return nil, fmt.Errorf("relation: %s:%d: empty shard path", name, line)
		}
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		entries = append(entries, shardManifestEntry{rows: rows, path: path})
		if len(entries) > maxManifestShards {
			return nil, fmt.Errorf("relation: %s: more than %d shards", name, maxManifestShards)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("relation: %s: reading manifest: %w", name, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("relation: %s: shard manifest lists no shards", name)
	}
	return entries, nil
}

// sameSchema reports whether two schemas are identical (names and kinds
// in the same order).
func sameSchema(a, b Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readShardManifest stats, reads, and parses the manifest at path,
// returning its entries and its committed text: everything before the
// first NUL byte, so a grow's staged tail is never read.
func readShardManifest(manifestPath string) ([]shardManifestEntry, []byte, error) {
	st, err := os.Stat(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	if st.Size() > maxManifestBytes {
		return nil, nil, fmt.Errorf("relation: %s: implausible %d-byte shard manifest", manifestPath, st.Size())
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	if end := bytes.IndexByte(data, 0); end >= 0 {
		data = data[:end]
	}
	entries, err := parseShardManifest(manifestPath, data, filepath.Dir(manifestPath))
	return entries, data, err
}

// buildShardSet opens manifest entries [from, len(entries)), reusing
// the already-open prefix shards, and returns the complete snapshot.
// schema is the required schema for every newly opened shard (nil when
// from == 0: shard 0 defines it). On error, every shard opened by THIS
// call is closed; prefix shards are left untouched.
func buildShardSet(manifestPath string, entries []shardManifestEntry, prefix []*DiskRelation, schema Schema) (*shardSet, error) {
	from := len(prefix)
	ss := &shardSet{
		shards:  append(make([]*DiskRelation, 0, len(entries)), prefix...),
		paths:   make([]string, 0, len(entries)),
		entries: entries,
		starts:  make([]int, 1, len(entries)+1),
	}
	ok := false
	defer func() {
		if !ok {
			for _, sh := range ss.shards[from:] {
				sh.Close()
			}
		}
	}()
	for i, e := range entries {
		if i >= from {
			dr, err := OpenDisk(e.path)
			if err != nil {
				return nil, fmt.Errorf("relation: %s: shard %d: %w", manifestPath, i, err)
			}
			ss.shards = append(ss.shards, dr)
		}
		dr := ss.shards[i]
		ss.paths = append(ss.paths, e.path)
		if dr.NumTuples() != e.rows {
			return nil, fmt.Errorf("relation: %s: shard %d (%s) holds %d rows, manifest declares %d",
				manifestPath, i, e.path, dr.NumTuples(), e.rows)
		}
		if schema == nil {
			schema = dr.Schema()
		} else if !sameSchema(schema, dr.Schema()) {
			return nil, fmt.Errorf("relation: %s: shard %d (%s) schema %v differs from shard 0 schema %v",
				manifestPath, i, e.path, dr.Schema().Names(), schema.Names())
		}
		ss.numRows += e.rows
		ss.starts = append(ss.starts, ss.numRows)
	}
	ok = true
	return ss, nil
}

// OpenSharded opens a sharded relation from its manifest: every listed
// shard file is opened (format version negotiated per shard) and
// cross-checked — declared row counts against the shard headers,
// schemas for exact equality across shards — before any row is served,
// so a corrupt or drifted manifest fails at open, not mid-scan.
func OpenSharded(manifestPath string) (*ShardedRelation, error) {
	entries, _, err := readShardManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	ss, err := buildShardSet(manifestPath, entries, nil, nil)
	if err != nil {
		return nil, err
	}
	sr := &ShardedRelation{manifestPath: manifestPath, schema: ss.shards[0].Schema()}
	sr.cur.Store(ss)
	return sr, nil
}

// Reopen re-reads the manifest and picks up shards committed since the
// relation was opened (or last reopened). The new manifest must extend
// the current one — every existing entry unchanged, in order — because
// append is the only manifest mutation that preserves the global row
// numbering cached statistics are keyed on; anything else (reorder,
// rewrite, truncation) errors and leaves the relation on its current
// snapshot. In-flight scans are never invalidated: they run against
// the snapshot they started on, whose shards stay open. Returns the
// number of rows added.
func (sr *ShardedRelation) Reopen() (added int, err error) {
	sr.reopenMu.Lock()
	defer sr.reopenMu.Unlock()
	old := sr.cur.Load()
	entries, _, err := readShardManifest(sr.manifestPath)
	if err != nil {
		return 0, err
	}
	if len(entries) < len(old.entries) {
		return 0, fmt.Errorf("relation: %s: manifest shrank from %d to %d shards; reopen requires append-only growth",
			sr.manifestPath, len(old.entries), len(entries))
	}
	for i, e := range old.entries {
		if entries[i].rows != e.rows || entries[i].path != e.path {
			return 0, fmt.Errorf("relation: %s: shard %d changed (%d rows at %s -> %d rows at %s); reopen requires append-only growth",
				sr.manifestPath, i, e.rows, e.path, entries[i].rows, entries[i].path)
		}
	}
	if len(entries) == len(old.entries) {
		return 0, nil // nothing new committed
	}
	ss, err := buildShardSet(sr.manifestPath, entries, old.shards, sr.schema)
	if err != nil {
		return 0, err
	}
	sr.cur.Store(ss)
	if ss.numRows != old.numRows {
		sr.epoch.Add(1)
	}
	return ss.numRows - old.numRows, nil
}

// Epoch returns a counter incremented every time Reopen picks up
// committed rows. Sessions compare epochs to detect that cached
// statistics cover a prefix of the current relation.
func (sr *ShardedRelation) Epoch() int64 { return sr.epoch.Load() }

// Schema implements Relation.
func (sr *ShardedRelation) Schema() Schema { return sr.schema }

// NumTuples implements Relation.
func (sr *ShardedRelation) NumTuples() int { return sr.cur.Load().numRows }

// NumShards returns the number of shard files backing the relation.
func (sr *ShardedRelation) NumShards() int { return len(sr.cur.Load().shards) }

// ManifestPath returns the path the relation was opened from.
func (sr *ShardedRelation) ManifestPath() string { return sr.manifestPath }

// StoragePaths returns every file backing the relation: the manifest,
// then the shard files in manifest order. Conversion helpers use it to
// refuse writing a destination onto one of its own sources.
func (sr *ShardedRelation) StoragePaths() []string {
	ss := sr.cur.Load()
	out := make([]string, 0, len(ss.paths)+1)
	out = append(out, sr.manifestPath)
	return append(out, ss.paths...)
}

// BytesRead sums the counted payload bytes delivered from disk across
// all shards since open (or the last ResetBytesRead). Safe for
// concurrent use.
func (sr *ShardedRelation) BytesRead() int64 {
	var total int64
	for _, sh := range sr.cur.Load().shards {
		total += sh.BytesRead()
	}
	return total
}

// ResetBytesRead zeroes every shard's BytesRead counter.
func (sr *ShardedRelation) ResetBytesRead() {
	for _, sh := range sr.cur.Load().shards {
		sh.ResetBytesRead()
	}
}

// Close releases every shard's resources (point-read mappings). Shards
// stay usable afterwards via positioned reads, like DiskRelation.Close.
// Calling Close while scans or point reads are in flight on the
// sharded relation returns ErrBusy and releases nothing.
func (sr *ShardedRelation) Close() error {
	if !sr.ops.TryLock() {
		return fmt.Errorf("relation: %s: %w", sr.manifestPath, ErrBusy)
	}
	defer sr.ops.Unlock()
	// Hold reopenMu so a racing Reopen cannot open shards after Close
	// loaded the snapshot (they would leak their mappings).
	sr.reopenMu.Lock()
	defer sr.reopenMu.Unlock()
	var first error
	for _, sh := range sr.cur.Load().shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ScanAlignment implements ScanAligner with the coarsest storage unit
// of any shard (a v2 shard's block-group size, 1 for all-v1 shards).
// For sharded relations the value is a granularity hint only: shard
// boundaries fall at arbitrary global offsets and each shard's group
// grid is phased to the shard's own first row (see SnapSegment).
func (sr *ShardedRelation) ScanAlignment() int {
	g := 1
	for _, sh := range sr.cur.Load().shards {
		if a := sh.ScanAlignment(); a > g {
			g = a
		}
	}
	return g
}

// shardAt returns the index of the shard containing global row, for
// row in [0, numRows). Empty shards never contain a row and are
// skipped naturally.
func (ss *shardSet) shardAt(row int) int {
	// First i with starts[i] >= row+1, minus one: starts[i] <= row < starts[i+1].
	return sort.SearchInts(ss.starts, row+1) - 1
}

// SnapSegment implements SegmentSnapper: the proposed cut is rounded to
// the nearest preferred boundary — a multiple of the containing shard's
// block-group size measured from that shard's first row, clamped to the
// shard's own bounds (shard boundaries are themselves always preferred
// cuts, since every shard starts a fresh group grid).
func (sr *ShardedRelation) SnapSegment(cut int) int {
	ss := sr.cur.Load()
	if cut <= 0 {
		return 0
	}
	if cut >= ss.numRows {
		return ss.numRows
	}
	i := ss.shardAt(cut)
	align := ss.shards[i].ScanAlignment()
	if align <= 1 {
		return cut
	}
	local := cut - ss.starts[i]
	snapped := (local + align/2) / align * align
	if max := ss.starts[i+1] - ss.starts[i]; snapped > max {
		snapped = max
	}
	return ss.starts[i] + snapped
}

// Scan implements Relation by streaming every shard in manifest order.
func (sr *ShardedRelation) Scan(cols ColumnSet, fn func(*Batch) error) error {
	return sr.ScanRange(0, sr.NumTuples(), cols, fn)
}

// ScanRange implements Relation: the global row range [start, end)
// is translated into per-shard sub-ranges and streamed shard by shard
// in global row order on the caller's goroutine, each shard through
// its own block scan.
// It is ScanRangePruned with no predicate. Bounds semantics are
// identical to the other backends: start/end outside [0, NumTuples()]
// or start > end error; start == end scans nothing.
func (sr *ShardedRelation) ScanRange(start, end int, cols ColumnSet, fn func(*Batch) error) error {
	return sr.ScanRangePruned(start, end, cols, nil, nil, fn)
}

// ScanRangePruned implements Relation by delegating to each
// shard in the window, in manifest order: v3 shards prune through their
// zone maps, v1/v2 shards deliver everything — so a mixed-format
// relation prunes exactly where its storage can. A nil or empty pred
// makes every shard a plain range scan. Shards are read one after
// another; parallel counting splits the relation into chunks at shard
// boundaries and scans each chunk on its own worker.
func (sr *ShardedRelation) ScanRangePruned(start, end int, cols ColumnSet, pred *Predicate, skip func(rows int) error, fn func(*Batch) error) error {
	sr.ops.RLock()
	defer sr.ops.RUnlock()
	ss := sr.cur.Load()
	if err := cols.Validate(sr.schema); err != nil {
		return err
	}
	if err := pred.Validate(sr.schema); err != nil {
		return err
	}
	if start < 0 || end > ss.numRows || start > end {
		return fmt.Errorf("relation: scan range [%d,%d) out of [0,%d)", start, end, ss.numRows)
	}
	if start == end {
		return nil
	}
	for i, last := ss.shardAt(start), ss.shardAt(end-1); i <= last; i++ {
		// [start, end) clipped to shard i, in the shard's own rows.
		lo, hi := max(start-ss.starts[i], 0), min(end, ss.starts[i+1])-ss.starts[i]
		if lo >= hi {
			continue // empty shard inside the window
		}
		if err := ss.shards[i].ScanRangePruned(lo, hi, cols, pred, skip, fn); err != nil {
			return err
		}
	}
	return nil
}

// ReadNumericPoints implements Relation across shards: the
// sorted global rows are split into per-shard runs and each run is
// served in place by that shard's own point reader (mmap-backed where
// available), rebased by the shard's first row rather than copied,
// preserving the 8-bytes-per-unique-row counted cost.
func (sr *ShardedRelation) ReadNumericPoints(attr int, rows []int, out []float64) error {
	sr.ops.RLock()
	defer sr.ops.RUnlock()
	ss := sr.cur.Load()
	if attr < 0 || attr >= len(sr.schema) || sr.schema[attr].Kind != Numeric {
		return fmt.Errorf("relation: point read attribute %d is not a numeric column", attr)
	}
	if len(out) != len(rows) {
		return fmt.Errorf("relation: %d rows but %d outputs", len(rows), len(out))
	}
	for i, row := range rows {
		if row < 0 || row >= ss.numRows {
			return fmt.Errorf("relation: point read row %d out of [0,%d)", row, ss.numRows)
		}
		if i > 0 && row < rows[i-1] {
			return fmt.Errorf("relation: point read rows not sorted at %d", i)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	for j := 0; j < len(rows); {
		i := ss.shardAt(rows[j])
		k := j + sort.SearchInts(rows[j:], ss.starts[i+1])
		if err := ss.shards[i].readNumericPoints(attr, rows[j:k], ss.starts[i], out[j:k]); err != nil {
			return err
		}
		j = k
	}
	return nil
}

// IsShardManifest reports whether the file at path begins with the
// shard-manifest magic — the cheap sniff OpenData uses to dispatch
// between the single-file and sharded backends.
func IsShardManifest(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	buf := make([]byte, len(shardManifestMagic))
	n := sniffPrefix(f, buf)
	return string(buf[:n]) == shardManifestMagic, nil
}

// OpenData opens either disk backend at path, sniffing the file's
// magic: a shard manifest opens as a ShardedRelation, anything else is
// handed to OpenDisk.
func OpenData(path string) (DataRelation, error) {
	isManifest, err := IsShardManifest(path)
	if err != nil {
		return nil, err
	}
	if isManifest {
		return OpenSharded(path)
	}
	return OpenDisk(path)
}

// ShardedWriterOptions configures NewShardedWriter. Exactly one
// splitting policy must be chosen; both split the append stream into
// CONTIGUOUS runs (shard 0 holds the first rows, shard 1 the next, …)
// because global row order is the mining contract — a sharded relation
// must be tuple-for-tuple identical to the same stream written to one
// file, or samples, boundaries, and rules would silently change.
type ShardedWriterOptions struct {
	// RowsPerShard, when positive, starts a new shard every RowsPerShard
	// rows (size-based splitting, for streams of unknown length).
	RowsPerShard int
	// Shards, when positive, targets that many shards for an expected
	// TotalRows tuples (count-based splitting): rows per shard is
	// ceil(TotalRows/Shards). Appending beyond TotalRows keeps splitting
	// at the same size, growing extra shards.
	Shards int
	// TotalRows is the expected tuple count for count-based splitting.
	TotalRows int
	// Format is the shard file format version (DiskFormatV1,
	// DiskFormatV2, or DiskFormatV3); 0 selects the v2 default.
	Format int
	// GroupRows is the v2/v3 block-group size; 0 selects the default.
	GroupRows int
}

// rowsPerShard resolves the splitting policy.
func (o ShardedWriterOptions) rowsPerShard() (int, error) {
	switch {
	case o.RowsPerShard > 0 && o.Shards > 0:
		return 0, fmt.Errorf("relation: sharded writer: set RowsPerShard or Shards, not both")
	case o.RowsPerShard > 0:
		return o.RowsPerShard, nil
	case o.Shards > 0:
		if o.TotalRows < 0 {
			return 0, fmt.Errorf("relation: sharded writer: negative TotalRows %d", o.TotalRows)
		}
		rps := (o.TotalRows + o.Shards - 1) / o.Shards
		if rps < 1 {
			rps = 1
		}
		return rps, nil
	default:
		return 0, fmt.Errorf("relation: sharded writer needs RowsPerShard or Shards")
	}
}

// ShardedWriter streams tuples into a sharded relation: shard files are
// written next to the manifest path (named <base>-s00000.opr,
// <base>-s00001.opr, …), a new shard starting whenever the splitting
// policy says so, and the manifest itself is written last, on Close,
// so a crashed or failed write never leaves a manifest pointing at
// missing or short shards. A fresh manifest is a temp file renamed into
// place. The same writer grows an existing relation (AppendToSharded):
// the new `shard` lines are committed in place past the manifest's
// committed end (appendManifest), leaving its existing text as it is,
// and new shards are numbered past any base-named file already on
// disk, so existing shard files are never touched and the old relation
// stays a valid prefix of the new.
type ShardedWriter struct {
	manifestPath string
	dir          string
	base         string
	schema       Schema
	format       int
	groupRows    int
	rowsPerShard int
	// entries holds the manifest lines: the existing ones followed by
	// every shard this writer committed.
	entries  []shardManifestEntry
	existing int
	// committed is a grow's committed manifest text, which its new lines
	// follow (nil for a fresh relation).
	committed []byte
	next      int // shard file number of the current (or next) shard
	cur       *DiskWriter
	curRows   int
	rows      int
	closed    bool
	closeErr  error // sticky result of the first Close
	// writeErr latches a failed shard rollover: the writer has lost rows
	// (a shard closed but its successor was never created), so every
	// later Append and the final Close must fail rather than commit a
	// manifest that silently drops the tail of the stream.
	writeErr error
	// openManifest opens the manifest for a grow's commit; tests swap
	// in a file whose operations fail.
	openManifest func(path string) (manifestFile, error)
}

// NewShardedWriter creates a sharded relation rooted at manifestPath
// (conventionally *.oprs). The first shard file is created eagerly so
// an immediately-Closed writer still yields a valid empty relation.
func NewShardedWriter(manifestPath string, schema Schema, opts ShardedWriterOptions) (*ShardedWriter, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	rps, err := opts.rowsPerShard()
	if err != nil {
		return nil, err
	}
	sw, err := newShardedWriter(manifestPath, schema, opts.Format, opts.GroupRows, rps, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := sw.startShard(); err != nil {
		return nil, err
	}
	return sw, nil
}

// newShardedWriter builds a writer whose manifest starts with existing,
// parsed from the committed text committed (both nil for a fresh
// relation), and whose first shard is numbered next. No file is created
// until the first shard starts, so a grow that appends nothing leaves
// the directory and the manifest untouched.
func newShardedWriter(manifestPath string, schema Schema, format, groupRows, rowsPerShard int, existing []shardManifestEntry, committed []byte, next int) (*ShardedWriter, error) {
	if err := checkFormat(format); err != nil {
		return nil, err
	}
	return &ShardedWriter{
		manifestPath: manifestPath,
		dir:          filepath.Dir(manifestPath),
		base:         shardBaseName(manifestPath),
		schema:       schema,
		format:       format,
		groupRows:    groupRows,
		rowsPerShard: rowsPerShard,
		entries:      existing,
		existing:     len(existing),
		committed:    committed,
		openManifest: openManifestFile,
		next:         next,
	}, nil
}

// shardBaseName derives the shard files' name stem from the manifest
// path (its base with the extension stripped).
func shardBaseName(manifestPath string) string {
	base := filepath.Base(manifestPath)
	if ext := filepath.Ext(base); ext != "" {
		base = base[:len(base)-len(ext)]
	}
	return base
}

// shardFileName returns the base name of shard i for the given stem —
// the ONE place the naming scheme lives; the writer, the grow
// numbering, and the ConvertToSharded freshness pre-check all use it,
// so they can never drift from the names the writer actually creates.
func shardFileName(base string, i int) string {
	return fmt.Sprintf("%s-s%05d.opr", base, i)
}

// startShard opens the next shard file.
func (sw *ShardedWriter) startShard() error {
	path := filepath.Join(sw.dir, shardFileName(sw.base, sw.next))
	dw, err := newFormatWriter(path, sw.schema, sw.format, sw.groupRows)
	if err != nil {
		return err
	}
	sw.cur = dw
	sw.curRows = 0
	return nil
}

// finishShard commits the current shard and records its manifest entry.
func (sw *ShardedWriter) finishShard() error {
	if err := sw.cur.Close(); err != nil {
		return err
	}
	sw.entries = append(sw.entries, shardManifestEntry{rows: sw.curRows, path: filepath.Join(sw.dir, shardFileName(sw.base, sw.next))})
	sw.next++
	sw.cur = nil
	return nil
}

// Append writes one tuple (same contract as DiskWriter.Append),
// rolling over to a new shard file when the splitting policy fills the
// current one. A failed rollover is sticky: the writer has already
// lost its place in the stream, so later Appends and Close keep
// failing instead of committing a manifest with a silent gap.
func (sw *ShardedWriter) Append(nums []float64, bools []bool) error {
	if sw.closed {
		return fmt.Errorf("relation: append to closed ShardedWriter")
	}
	if sw.writeErr != nil {
		return sw.writeErr
	}
	if sw.cur == nil || sw.curRows == sw.rowsPerShard {
		if sw.cur != nil {
			if err := sw.finishShard(); err != nil {
				sw.writeErr = err
				return err
			}
		}
		if err := sw.startShard(); err != nil {
			sw.writeErr = err
			return err
		}
	}
	if err := sw.cur.Append(nums, bools); err != nil {
		return err
	}
	sw.curRows++
	sw.rows++
	return nil
}

// Close finalizes the last shard, then commits the manifest: a fresh
// one as a temp file in the manifest's directory renamed into place, a
// grow's new lines in place past the committed end (appendManifest).
// Either way readers only ever see a manifest whose shards are
// complete. A grow that appended no rows leaves the manifest
// byte-identical. A failed Close removes every shard the writer
// committed, leaves the manifest's committed text as it was, and is
// sticky: repeated calls return the first error instead of a false
// success.
func (sw *ShardedWriter) Close() error {
	if sw.closed {
		return sw.closeErr
	}
	sw.closed = true
	if sw.closeErr = sw.commit(); sw.closeErr != nil {
		sw.abort()
	}
	return sw.closeErr
}

// commit is Close's one-shot body.
func (sw *ShardedWriter) commit() error {
	if sw.writeErr != nil {
		// A rollover already failed: refuse to commit a manifest missing
		// part of the stream.
		return fmt.Errorf("relation: sharded writer failed before Close: %w", sw.writeErr)
	}
	if sw.cur != nil {
		if err := sw.finishShard(); err != nil {
			return err
		}
	}
	if len(sw.entries) == sw.existing {
		return nil // nothing appended: manifest untouched
	}
	if sw.existing == 0 {
		// The manifest is data, not a secret: a fresh one carries the
		// mode of the shard files it points at.
		return writeShardManifest(sw.manifestPath, sw.entries, outputMode([]string{sw.entries[0].path}))
	}
	var record []byte
	if c := sw.committed; c[len(c)-1] != '\n' { // never empty: it parsed, so it holds the header
		record = append(record, '\n')
	}
	f, err := sw.openManifest(sw.manifestPath)
	if err != nil {
		return err
	}
	return appendManifest(f, sw.manifestPath, int64(len(sw.committed)), appendShardLines(record, sw.entries[sw.existing:]))
}

// Discard abandons the write: every file this writer created is
// removed and the manifest keeps whatever it held before. Callers that
// fail mid-stream must Discard rather than Close — Close would commit
// the rows written so far. A no-op after Close or a second Discard;
// later Appends and Closes fail.
func (sw *ShardedWriter) Discard() {
	if sw.closed {
		return
	}
	sw.closed = true
	sw.closeErr = errors.New("relation: sharded writer discarded")
	sw.abort()
}

// abort removes the current shard's staging file and every shard the
// writer committed.
func (sw *ShardedWriter) abort() {
	if sw.cur != nil {
		sw.cur.Discard()
		sw.cur = nil
	}
	for _, e := range sw.entries[sw.existing:] {
		os.Remove(e.path)
	}
	sw.entries = sw.entries[:sw.existing]
}

// writeFrom streams every tuple of src into sw and commits it; on any
// error nothing sw wrote is left behind.
func (sw *ShardedWriter) writeFrom(src Relation) error {
	if err := appendAll(src, sw.Append); err != nil {
		sw.Discard()
		return err
	}
	return sw.Close()
}

// appendShardLines appends one `shard <rows> <path>` line per entry the
// writer made to b. Those shards live beside the manifest, so each path
// is written relative to it: the file's base name.
func appendShardLines(b []byte, entries []shardManifestEntry) []byte {
	for _, e := range entries {
		b = fmt.Appendf(b, "shard %d %s\n", e.rows, filepath.Base(e.path))
	}
	return b
}

// writeShardManifest writes a fresh relation's manifest — the header
// and one line per entry — and commits it over path through a staged
// temp file, so readers see no manifest or the whole one, never a torn
// one. Grows commit through appendManifest instead.
func writeShardManifest(path string, entries []shardManifestEntry, mode os.FileMode) error {
	data := appendShardLines(fmt.Appendf(nil, "%s %d\n", shardManifestMagic, ShardManifestVersion), entries)
	tf, err := createStaged(path)
	if err != nil {
		return err
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		os.Remove(tf.Name())
		return err
	}
	return commitStaged(tf, path, mode)
}

// appendManifest is the one commit of a grow. record — whole `shard`
// lines, led by a newline when the committed text lacks its final one —
// is written in place at end, the committed manifest's length, so the
// manifest's inode is never replaced. The record is staged in one
// positioned write with a NUL in place of its first byte; every reader
// ends the committed manifest at the first NUL, and since paths cannot
// hold NUL and any torn prefix of the staged write starts with it, a
// reader (or a crash at any byte) sees the old relation until the
// commit writes that one byte, and the whole grow after it. An
// uncommitted tail an earlier failed grow left past end is overwritten
// and cut off before the commit; a failed grow truncates the manifest
// back to end. Durability belongs here: sync the staged record, write
// the commit byte, sync again. appendManifest closes f, the manifest
// at path opened for writing.
func appendManifest(f manifestFile, path string, end int64, record []byte) (err error) {
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Truncate(path, end)
		}
	}()
	staged := append([]byte{0}, record[1:]...)
	if _, err := f.WriteAt(staged, end); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if size := end + int64(len(record)); st.Size() > size {
		if err := f.Truncate(size); err != nil {
			return err
		}
	}
	_, err = f.WriteAt(record[:1], end)
	return err
}

// manifestFile is the part of *os.File a grow's commit writes through.
type manifestFile interface {
	WriteAt(b []byte, off int64) (int, error)
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Close() error
}

// openManifestFile opens the manifest at path for a grow's in-place
// commit.
func openManifestFile(path string) (manifestFile, error) {
	return os.OpenFile(path, os.O_WRONLY, 0)
}

// ConvertToSharded streams an open relation into a sharded relation at
// manifestPath with the given shard count and shard format version
// (0 selects v2). The destination must be FRESH: any pre-existing file
// among the planned outputs (the manifest or a shard name) is refused
// — a multi-file relation cannot be overwritten atomically the way
// ConvertFile's single temp-and-rename can, and creating the writer
// would truncate files in place (catastrophic when they alias the
// source being read, destructive even when they belong to an unrelated
// relation). A failed conversion removes everything it created — which
// the freshness check guarantees is only ever its own files — so no
// partial shard set is left behind.
func ConvertToSharded(src Relation, manifestPath string, shards, version int) error {
	if shards < 1 {
		return fmt.Errorf("relation: shard count %d must be positive", shards)
	}
	opts := ShardedWriterOptions{Shards: shards, TotalRows: src.NumTuples(), Format: version}
	rps, err := opts.rowsPerShard()
	if err != nil {
		return err
	}
	planned := []string{manifestPath}
	base := shardBaseName(manifestPath)
	numShards := 1
	if rps > 0 && src.NumTuples() > 0 {
		numShards = (src.NumTuples() + rps - 1) / rps
	}
	for i := 0; i < numShards; i++ {
		planned = append(planned, filepath.Join(filepath.Dir(manifestPath), shardFileName(base, i)))
	}
	for _, p := range planned {
		if _, err := os.Stat(p); err == nil {
			return fmt.Errorf("relation: sharded conversion destination %s already exists; remove it or choose a fresh path", p)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	sw, err := NewShardedWriter(manifestPath, src.Schema(), opts)
	if err != nil {
		return err
	}
	return sw.writeFrom(src)
}

// AppendOptions configures AppendToSharded.
type AppendOptions struct {
	// RowsPerShard, when positive, starts a new appended shard every
	// RowsPerShard rows; 0 puts the whole appended stream in one new
	// shard.
	RowsPerShard int
	// Format is the new shards' file format version (DiskFormatV1,
	// DiskFormatV2, or DiskFormatV3); 0 selects the v2 default. Appended
	// shards may use a different format than the existing ones.
	Format int
	// GroupRows is the v2/v3 block-group size; 0 selects the default.
	GroupRows int
}

// AppendToSharded streams every tuple of src onto the end of the
// sharded relation at manifestPath: the tuples land in fresh shard
// files next to the manifest, and their `shard` lines are committed in
// place past the manifest's committed end (appendManifest) — the
// existing text, comments included, is never rewritten — so a reader
// that opens (or Reopens) it sees either the old relation or the fully
// grown one. The source schema must equal the relation's schema
// exactly (names and kinds, in order) — mismatches are refused before
// any file is created. On any error the appended shard files are
// removed and the manifest's committed text is left as it was, so the
// relation either grows by all of src or not at all. A grow that crashed
// before its commit byte leaves its shard files behind; the next grow
// deletes them before numbering its own (reclaimOrphanShards).
//
// Readers may run concurrently with a grow, but a manifest takes one
// writer at a time: a second grow started while another is between
// writing its shards and committing them deletes those shards as
// orphans, and the first grow then commits lines naming deleted files.
func AppendToSharded(manifestPath string, src Relation, opts AppendOptions) (rows int, err error) {
	sw, err := growWriter(manifestPath, src.Schema(), opts)
	if err != nil {
		return 0, err
	}
	if err := sw.writeFrom(src); err != nil {
		return 0, err
	}
	return sw.rows, nil
}

// growWriter returns the writer of a grow of the relation at
// manifestPath by rows of the given schema; see AppendToSharded.
func growWriter(manifestPath string, srcSchema Schema, opts AppendOptions) (*ShardedWriter, error) {
	entries, committed, err := readShardManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	dr, err := OpenDisk(entries[0].path)
	if err != nil {
		return nil, fmt.Errorf("relation: %s: shard 0: %w", manifestPath, err)
	}
	schema := dr.Schema()
	dr.Close()
	if !sameSchema(schema, srcSchema) {
		return nil, fmt.Errorf("relation: append schema %v does not match %s schema %v",
			srcSchema.Names(), manifestPath, schema.Names())
	}
	next, err := reclaimOrphanShards(manifestPath, entries)
	if err != nil {
		return nil, err
	}
	rps := opts.RowsPerShard
	if rps <= 0 {
		rps = math.MaxInt // the whole stream in one shard
	}
	return newShardedWriter(manifestPath, schema, opts.Format, opts.GroupRows, rps, entries, committed, next)
}

// reclaimOrphanShards removes the shard files a failed or crashed grow
// left behind and returns the number the next new shard takes. Such a
// grow wrote its shards but never committed the manifest lines naming
// them, so they are exactly the files next to the manifest named
// <base>-sNNNNN.opr (shardFileName) whose number is above the highest
// such file the committed manifest names. Committed shards are matched
// by file identity (os.SameFile), not by path text, so a manifest that
// names its shards by absolute path, through "..", or through a
// symlinked directory keeps every one of them. A grow of a manifest
// with a missing shard is refused before any file is touched. With one
// writer per manifest no live writer can own an orphan, and no reader
// opens a file the committed manifest does not name. Committed shards,
// base-named files numbered at or below the highest committed one, and
// files under any other name are never touched. New shards then number
// from past both the entry count and that highest shard, so a grow
// never overwrites a file the manifest names.
func reclaimOrphanShards(manifestPath string, entries []shardManifestEntry) (next int, err error) {
	dir, base := filepath.Dir(manifestPath), shardBaseName(manifestPath)
	named := make([]os.FileInfo, len(entries))
	for k, e := range entries {
		if named[k], err = os.Stat(e.path); err != nil {
			return 0, fmt.Errorf("relation: %s: shard %d: %w", manifestPath, k, err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	top := -1
	var found []int
	for _, f := range files {
		i, ok := shardFileNumber(base, f.Name())
		if !ok {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, f.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return 0, err
		}
		if slices.ContainsFunc(named, func(c os.FileInfo) bool { return os.SameFile(c, fi) }) {
			top = max(top, i)
		} else {
			found = append(found, i)
		}
	}
	for _, i := range found {
		if i <= top {
			continue
		}
		if err := os.Remove(filepath.Join(dir, shardFileName(base, i))); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	return max(len(entries), top+1), nil
}

// shardFileNumber returns i when name is exactly shardFileName(base, i).
func shardFileNumber(base, name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, base+"-s")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, ".opr"); !ok || len(digits) > 9 {
		return 0, false
	}
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 || shardFileName(base, i) != name {
		return 0, false
	}
	return i, true
}

// storagePathsOf returns the files backing rel, when it declares them.
func storagePathsOf(rel Relation) []string {
	if fb, ok := rel.(interface{ StoragePaths() []string }); ok {
		return fb.StoragePaths()
	}
	return nil
}

// removeAll best-effort removes the given paths.
func removeAll(paths []string) {
	for _, p := range paths {
		os.Remove(p)
	}
}

// appendAll streams every tuple of src into emit, in storage order.
func appendAll(src Relation, emit func(nums []float64, bools []bool) error) error {
	s := src.Schema()
	cols := ColumnSet{Numeric: s.NumericIndices(), Bool: s.BooleanIndices()}
	nums := make([]float64, len(cols.Numeric))
	bools := make([]bool, len(cols.Bool))
	return src.Scan(cols, func(b *Batch) error {
		for row := 0; row < b.Len; row++ {
			for k := range nums {
				nums[k] = b.Numeric[k][row]
			}
			for k := range bools {
				bools[k] = b.Bool[k][row]
			}
			if err := emit(nums, bools); err != nil {
				return err
			}
		}
		return nil
	})
}
