package relation

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// Format v2 — column-major block groups (little endian):
//
//	magic     [4]byte  "OPTR"
//	version   uint32   2
//	nattrs    uint32
//	per attribute: kind uint8, nameLen uint16, name []byte
//	numRows   uint64   (patched on Close)
//	groupRows uint32   rows per full block group
//	numGroups uint32   (patched on Close)
//	dirOff    uint64   file offset of the group directory (patched on Close)
//	block groups, back to back
//	directory at dirOff: numGroups × { off uint64, rows uint32 }
//
// Within a group of g rows, every column is contiguous:
//
//	numeric column j (dense order): g × 8 bytes of float64 at j·8·g
//	boolean column j (dense order): ceil(g/8) bytes of packed bits
//	    (row r is bit r%8 of byte r/8, LSB first) after the numerics
//
// The column-major layout is what makes selective scans cheap: a scan
// touching k of d numeric attributes seeks to k column blocks per group
// and reads ~k/d of the bytes a v1 row scan would. All groups except
// the last hold exactly groupRows rows, so the group containing any row
// is computable without consulting the directory; the directory exists
// to make offsets explicit (future block compression or reordering) and
// to let the reader validate a file before trusting it.
//
// Scans overlap I/O with decoding: a prefetcher goroutine reads the
// next batch-sized window of the selected column blocks while the
// caller decodes and counts the current one (see scanRangeV2). Memory
// stays bounded at 2 × selected columns × DefaultBatchSize values.

const (
	// DefaultGroupRows is the block-group size NewDiskWriterV2 uses when
	// none is given: 64Ki rows keeps each numeric column block at 512 KB
	// — large enough for sequential-read bandwidth, small enough that a
	// handful of in-flight groups stay comfortably in memory.
	DefaultGroupRows = 1 << 16
	// maxGroupRows bounds declared group sizes to keep hostile headers
	// from demanding absurd buffers.
	maxGroupRows = 1 << 22
	// v2ReadAheadGroups is the depth of the scan pipeline: how many
	// filled buffers may exist at once (the consumer's current one plus
	// the prefetcher's read-ahead). A v2 buffer holds one window of at
	// most DefaultBatchSize rows, so a v2 scan holds at most
	// 2 × selected columns × DefaultBatchSize values; a v3 buffer holds
	// one block group's encoded selected blocks.
	v2ReadAheadGroups = 2
)

// v2DirEntrySize is the encoded size of one directory entry.
const v2DirEntrySize = 8 + 4

// groupBytesV2 returns the encoded size of a block group of rows tuples
// for a schema with the given dense column counts.
func groupBytesV2(nums, bools, rows int) int64 {
	return int64(nums)*8*int64(rows) + int64(bools)*int64((rows+7)/8)
}

// NewDiskWriterV2 creates a v2 column-major relation file at path,
// staged in a temp file beside it and renamed over it by a successful
// Close. groupRows is the block-group size; 0 selects
// DefaultGroupRows. Call Append for each tuple and Close to finalize
// (or Discard to abandon).
func NewDiskWriterV2(path string, schema Schema, groupRows int) (*DiskWriter, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if groupRows == 0 {
		groupRows = DefaultGroupRows
	}
	if groupRows < 1 || groupRows > maxGroupRows {
		return nil, fmt.Errorf("relation: group size %d rows out of [1, %d]", groupRows, maxGroupRows)
	}
	f, err := createStaged(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	dw := &DiskWriter{
		f: f, w: w, schema: schema, version: DiskFormatV2,
		groupRows: groupRows,
		dst:       path,
		tmp:       f.Name(),
	}
	rowsOff, err := writeDiskHeader(w, schema, DiskFormatV2)
	if err != nil {
		dw.abort()
		return nil, err
	}
	// groupRows, then placeholders for numGroups and dirOff.
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(groupRows))
	w.Write(u32[:])
	var pad [12]byte
	if _, err := w.Write(pad[:]); err != nil {
		dw.abort()
		return nil, err
	}
	dw.rowsOff = rowsOff
	dw.off = rowsOff + 8 + 4 + 4 + 8
	for _, a := range schema {
		if a.Kind == Numeric {
			dw.nums++
		} else {
			dw.bools++
		}
	}
	dw.colNums = make([][]float64, dw.nums)
	for j := range dw.colNums {
		dw.colNums[j] = make([]float64, 0, groupRows)
	}
	dw.colBools = make([][]byte, dw.bools)
	for j := range dw.colBools {
		dw.colBools[j] = make([]byte, 0, (groupRows+7)/8)
	}
	return dw, nil
}

// appendV2 buffers one tuple into the pending block group, flushing it
// when full.
func (dw *DiskWriter) appendV2(nums []float64, bools []bool) error {
	for j, v := range nums {
		dw.colNums[j] = append(dw.colNums[j], v)
	}
	if dw.pending%8 == 0 {
		for j := range dw.colBools {
			dw.colBools[j] = append(dw.colBools[j], 0)
		}
	}
	for j, b := range bools {
		if b {
			dw.colBools[j][dw.pending/8] |= 1 << uint(dw.pending%8)
		}
	}
	dw.pending++
	dw.rows++
	if dw.pending == dw.groupRows {
		return dw.flushGroup()
	}
	return nil
}

// flushGroup writes the pending block group's columns contiguously and
// records its directory entry. v3 writers share the group buffering but
// encode each block before writing it.
func (dw *DiskWriter) flushGroup() error {
	if dw.version == DiskFormatV3 {
		return dw.flushGroupV3()
	}
	g := dw.pending
	if g == 0 {
		return nil
	}
	if dw.encodeBuf == nil {
		dw.encodeBuf = make([]byte, 8*dw.groupRows)
	}
	for _, col := range dw.colNums {
		buf := dw.encodeBuf[:8*g]
		for i, v := range col {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := dw.w.Write(buf); err != nil {
			return err
		}
	}
	for _, col := range dw.colBools {
		if _, err := dw.w.Write(col); err != nil {
			return err
		}
	}
	dw.groupOffs = append(dw.groupOffs, dw.off)
	dw.off += groupBytesV2(dw.nums, dw.bools, g)
	for j := range dw.colNums {
		dw.colNums[j] = dw.colNums[j][:0]
	}
	for j := range dw.colBools {
		dw.colBools[j] = dw.colBools[j][:0]
	}
	dw.pending = 0
	return nil
}

// closeV2 flushes the tail group, writes the group directory, and
// patches numRows, numGroups, and dirOff into the header.
func (dw *DiskWriter) closeV2() error {
	fail := func(err error) error {
		dw.abort()
		return err
	}
	tail := dw.pending
	if err := dw.flushGroup(); err != nil {
		return fail(err)
	}
	dirOff := dw.off
	var entry [v2DirEntrySize]byte
	for i, off := range dw.groupOffs {
		rows := dw.groupRows
		if i == len(dw.groupOffs)-1 && tail > 0 {
			rows = tail
		}
		binary.LittleEndian.PutUint64(entry[0:], uint64(off))
		binary.LittleEndian.PutUint32(entry[8:], uint32(rows))
		if _, err := dw.w.Write(entry[:]); err != nil {
			return fail(err)
		}
	}
	if err := dw.w.Flush(); err != nil {
		return fail(err)
	}
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], dw.rows)
	if _, err := dw.f.WriteAt(u64[:], dw.rowsOff); err != nil {
		return fail(err)
	}
	var tailer [12]byte
	binary.LittleEndian.PutUint32(tailer[0:], uint32(len(dw.groupOffs)))
	binary.LittleEndian.PutUint64(tailer[4:], uint64(dirOff))
	if _, err := dw.f.WriteAt(tailer[:], dw.rowsOff+8+4); err != nil {
		return fail(err)
	}
	return dw.commit()
}

// openV2Meta parses and validates the v2 header tail and block-group
// directory. r is positioned just after numRows; dr.dataOff still
// holds the offset of the position r is at and is advanced past the v2
// fields. Every declared quantity is cross-checked before any
// group-sized allocation so corrupt or truncated files fail with a
// clear error instead of a panic or an absurd allocation.
func (dr *DiskRelation) openV2Meta(f *os.File, r *bufio.Reader) error {
	var tail [16]byte
	if _, err := metaReadFull(r, tail[:]); err != nil {
		return fmt.Errorf("relation: %s: reading v2 header: %w", dr.path, err)
	}
	dr.groupRows = int(binary.LittleEndian.Uint32(tail[0:]))
	numGroups := int(binary.LittleEndian.Uint32(tail[4:]))
	dirOff := int64(binary.LittleEndian.Uint64(tail[8:]))
	dr.dataOff += 16
	if dr.groupRows < 1 || dr.groupRows > maxGroupRows {
		return fmt.Errorf("relation: %s: group size %d rows out of [1, %d]", dr.path, dr.groupRows, maxGroupRows)
	}
	wantGroups := (dr.numRows + dr.groupRows - 1) / dr.groupRows
	if numGroups != wantGroups {
		return fmt.Errorf("relation: %s: directory declares %d block groups, %d rows of %d need %d",
			dr.path, numGroups, dr.numRows, dr.groupRows, wantGroups)
	}
	if dirOff < dr.dataOff {
		return fmt.Errorf("relation: %s: directory offset %d inside header (data starts at %d)", dr.path, dirOff, dr.dataOff)
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	dirBytes := int64(numGroups) * v2DirEntrySize
	if dirOff+dirBytes > st.Size() {
		return fmt.Errorf("relation: %s truncated: %d bytes, directory needs [%d, %d)",
			dr.path, st.Size(), dirOff, dirOff+dirBytes)
	}
	dir := make([]byte, dirBytes)
	if _, err := metaReadAt(f, dir, dirOff); err != nil {
		return fmt.Errorf("relation: %s: reading block directory: %w", dr.path, err)
	}
	dr.groupOffs = make([]int64, numGroups)
	for g := 0; g < numGroups; g++ {
		off := int64(binary.LittleEndian.Uint64(dir[g*v2DirEntrySize:]))
		rows := int(binary.LittleEndian.Uint32(dir[g*v2DirEntrySize+8:]))
		wantRows := dr.groupRows
		if g == numGroups-1 {
			wantRows = dr.numRows - (numGroups-1)*dr.groupRows
		}
		if rows != wantRows {
			return fmt.Errorf("relation: %s: block group %d declares %d rows, want %d", dr.path, g, rows, wantRows)
		}
		if off < dr.dataOff || off+groupBytesV2(dr.nums, dr.bools, rows) > dirOff {
			return fmt.Errorf("relation: %s: block group %d at [%d, %d) outside data region [%d, %d)",
				dr.path, g, off, off+groupBytesV2(dr.nums, dr.bools, rows), dr.dataOff, dirOff)
		}
		dr.groupOffs[g] = off
	}
	return nil
}

// rowsInGroup returns the row count of block group g.
func (dr *DiskRelation) rowsInGroup(g int) int {
	if g == len(dr.groupOffs)-1 {
		if tail := dr.numRows - g*dr.groupRows; tail < dr.groupRows {
			return tail
		}
	}
	return dr.groupRows
}

// v2Fetch is one read-ahead window's selected column data, produced
// by the prefetcher and consumed by the decode loop. buf holds the
// selected numeric column slices back to back (rows×8 bytes each),
// then the selected boolean column byte ranges (all the same length
// for a given row window).
type v2Fetch struct {
	first int // first delivered row within the block group
	rows  int
	buf   []byte
	err   error
}

// v2BufPool recycles window buffers across scans so steady-state
// pipelines allocate nothing per window.
var v2BufPool sync.Pool

func v2GetBuf(size int) []byte {
	if b, ok := v2BufPool.Get().([]byte); ok && cap(b) >= size {
		return b[:size]
	}
	return make([]byte, size)
}

// v2BatchPool recycles decode batches across scans, so the many chunk
// scans of one parallel count allocate batches per worker, not per
// chunk.
var v2BatchPool sync.Pool

// v2GetBatch returns a batch of nums numeric and bools Boolean columns,
// each with room for DefaultBatchSize rows.
func v2GetBatch(nums, bools int) *Batch {
	if b, ok := v2BatchPool.Get().(*Batch); ok && len(b.Numeric) == nums && len(b.Bool) == bools {
		return b
	}
	b := &Batch{Numeric: make([][]float64, nums), Bool: make([][]bool, bools)}
	for k := range b.Numeric {
		b.Numeric[k] = make([]float64, DefaultBatchSize)
	}
	for k := range b.Bool {
		b.Bool[k] = make([]bool, DefaultBatchSize)
	}
	return b
}

// scanRangeV2 streams rows [start, end) of a v2 file through fn with an
// overlapped read-ahead pipeline: a prefetcher goroutine reads window
// N+1's selected column slices (one pread per column) while this
// goroutine decodes window N into one batch and runs fn. A window is
// up to DefaultBatchSize rows of one block group, cut at group-relative
// multiples of DefaultBatchSize and clipped to [start, end); the cuts
// are byte-aligned, so the windows' Boolean byte spans tile each
// group's span and BytesRead charges exactly what reading whole groups
// would. At most v2ReadAheadGroups window buffers are in flight, so
// memory is bounded by 2 × selected columns × DefaultBatchSize values
// regardless of the relation's or the block group's size.
func (dr *DiskRelation) scanRangeV2(start, end int, cols ColumnSet, fn func(*Batch) error) error {
	f, err := os.Open(dr.path)
	if err != nil {
		return err
	}
	defer f.Close()

	numSel := make([]int, len(cols.Numeric)) // dense numeric positions
	for k, i := range cols.Numeric {
		numSel[k] = dr.numPos[i]
	}
	boolSel := make([]int, len(cols.Bool)) // dense boolean positions
	for k, i := range cols.Bool {
		boolSel[k] = dr.boolPos[i]
	}
	// Every window fits one buffer of bufCap bytes: an unaligned first
	// row can stretch a Boolean span by one byte.
	winRows := min(DefaultBatchSize, dr.groupRows)
	bufCap := len(numSel)*winRows*8 + len(boolSel)*((winRows+7)/8+1)

	ready := make(chan *v2Fetch, v2ReadAheadGroups)
	free := make(chan []byte, v2ReadAheadGroups)
	for i := 0; i < v2ReadAheadGroups; i++ {
		free <- nil // sized lazily by the prefetcher
	}
	stop := make(chan struct{})
	prefDone := make(chan struct{})
	// On every exit path — completion, callback error, early abort —
	// stop the prefetcher, wait for it to exit, then reclaim all window
	// buffers into the pool. Early aborts are the COMMON case (the
	// sampling pass always stops at its last sorted index), so buffers
	// parked in free or queued in ready must survive for the next scan,
	// not be dropped for the GC. Draining is race-free only after
	// prefDone: the prefetcher no longer touches either channel.
	defer func() {
		close(stop)
		<-prefDone
		for {
			select {
			case fg, ok := <-ready:
				if ok && fg.buf != nil {
					v2BufPool.Put(fg.buf)
				}
				if !ok {
					// Channel closed and empty; fall through to free.
					ready = nil
				}
			case buf := <-free:
				if buf != nil {
					v2BufPool.Put(buf)
				}
			default:
				return
			}
		}
	}()

	// fill reads group-relative rows [first, last) of block group g.
	fill := func(g, first, last int, buf []byte) *v2Fetch {
		gRows := dr.rowsInGroup(g)
		rows := last - first
		numLen := rows * 8
		byteLo, byteHi := first/8, (last+7)/8
		boolLen := byteHi - byteLo
		total := len(numSel)*numLen + len(boolSel)*boolLen
		if cap(buf) < total {
			buf = v2GetBuf(bufCap)
		}
		buf = buf[:total]
		fg := &v2Fetch{first: first, rows: rows, buf: buf}
		base := dr.groupOffs[g]
		boolBase := base + int64(dr.nums)*8*int64(gRows)
		bytesPerBool := int64((gRows + 7) / 8)
		pos := 0
		for _, p := range numSel {
			off := base + int64(p)*8*int64(gRows) + int64(first)*8
			if _, err := uncountedReadAt(f, buf[pos:pos+numLen], off); err != nil {
				fg.err = fmt.Errorf("relation: reading column block of group %d of %s: %w", g, dr.path, err)
				return fg
			}
			pos += numLen
		}
		for _, q := range boolSel {
			off := boolBase + int64(q)*bytesPerBool + int64(byteLo)
			if _, err := uncountedReadAt(f, buf[pos:pos+boolLen], off); err != nil {
				fg.err = fmt.Errorf("relation: reading boolean block of group %d of %s: %w", g, dr.path, err)
				return fg
			}
			pos += boolLen
		}
		return fg
	}

	go func() {
		defer close(prefDone)
		defer close(ready)
		for row := start; row < end; {
			g := row / dr.groupRows
			gStart := g * dr.groupRows
			first := row - gStart
			last := min((first/DefaultBatchSize+1)*DefaultBatchSize, dr.rowsInGroup(g), end-gStart)
			var buf []byte
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			fg := fill(g, first, last, buf)
			select {
			case ready <- fg:
			case <-stop:
				return
			}
			if fg.err != nil {
				return
			}
			row = gStart + last
		}
	}()

	batch := v2GetBatch(len(cols.Numeric), len(cols.Bool))
	defer v2BatchPool.Put(batch)
	for fg := range ready {
		if fg.err != nil {
			v2BufPool.Put(fg.buf)
			return fg.err
		}
		// Count bytes at delivery, not inside the prefetcher: a scan the
		// caller aborts early must not charge for a window whose read-ahead
		// happened to finish — whether it did is a goroutine race, and
		// BytesRead is documented as a deterministic cost model.
		dr.bytesRead.Add(int64(len(fg.buf)))
		n := fg.rows
		numLen := n * 8
		boolLen := (fg.first+n+7)/8 - fg.first/8
		boolStart := len(numSel) * numLen
		bitBase := fg.first % 8
		for k := range numSel {
			src := fg.buf[k*numLen:]
			dst := batch.Numeric[k][:n]
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
			}
			batch.Numeric[k] = dst
		}
		for k := range boolSel {
			src := fg.buf[boolStart+k*boolLen:]
			dst := batch.Bool[k][:n]
			for i := range dst {
				bit := bitBase + i
				dst[i] = src[bit>>3]&(1<<uint(bit&7)) != 0
			}
			batch.Bool[k] = dst
		}
		batch.Len = n
		if err := fn(batch); err != nil {
			v2BufPool.Put(fg.buf)
			return err
		}
		select {
		case free <- fg.buf:
		default:
			v2BufPool.Put(fg.buf)
		}
	}
	return nil
}

// ConvertDisk rewrites the relation file at src into the given format
// version at dst, streaming batch by batch — the migration path among
// v1 row-major, v2 column-major, and v3 compressed files (any
// direction; same-version conversion regroups to the default block
// size). The partial output is removed on error.
func ConvertDisk(src, dst string, version int) error {
	dr, err := OpenDisk(src)
	if err != nil {
		return err
	}
	return ConvertDiskFrom(dr, dst, version)
}

// sameFile reports whether the two paths name the same file: equal
// after Abs-cleaning, or (when both exist) the same inode — catching
// symlinks and hard links too.
func sameFile(a, b string) bool {
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	if errA == nil && errB == nil && absA == absB {
		return true
	}
	stA, errA := os.Stat(a)
	stB, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(stA, stB)
}

// NewDiskWriterFormat creates a relation file at path in the given
// format version with default layout parameters.
func NewDiskWriterFormat(path string, schema Schema, version int) (*DiskWriter, error) {
	return newFormatWriter(path, schema, version, 0)
}

// newFormatWriter is the one version-to-writer dispatch: version 0
// selects the v2 default, groupRows 0 the default v2/v3 block-group
// size, and an unknown version is refused before any file is created.
func newFormatWriter(path string, schema Schema, version, groupRows int) (*DiskWriter, error) {
	if err := checkFormat(version); err != nil {
		return nil, err
	}
	switch version {
	case DiskFormatV1:
		return NewDiskWriter(path, schema)
	case DiskFormatV3:
		return NewDiskWriterV3(path, schema, groupRows)
	default:
		return NewDiskWriterV2(path, schema, groupRows)
	}
}

// checkFormat refuses a write format version newFormatWriter does not
// know; 0 (the v2 default) is accepted.
func checkFormat(version int) error {
	if version < 0 || version > DiskFormatV3 {
		return fmt.Errorf("relation: unknown disk format version %d", version)
	}
	return nil
}

// ConvertDiskFrom is ConvertDisk over an already-open source relation,
// so callers that inspected the source first do not parse it twice.
func ConvertDiskFrom(dr *DiskRelation, dst string, version int) error {
	return ConvertFile(dr, dst, version)
}

// ConvertFile streams any open relation into a single relation file at
// dst in the given format version. It refuses a dst aliasing one of
// the source's own files (in-place conversion would leave the still-
// open source describing a layout that no longer exists), and it is
// failure-safe: the staged writer puts the output in a temp file in
// dst's directory and renames it over dst only on a successful Close,
// so an interrupted or failed conversion never leaves a truncated dst
// — and never clobbers a pre-existing dst.
func ConvertFile(src Relation, dst string, version int) error {
	return convertFile(src, dst, version, -1)
}

// convertFile is the shared body of ConvertFile and
// ConvertFileClustered; clusterAttr < 0 preserves the source's row
// order.
func convertFile(src Relation, dst string, version, clusterAttr int) error {
	for _, p := range storagePathsOf(src) {
		if sameFile(p, dst) {
			return fmt.Errorf("relation: cannot convert %s onto itself", p)
		}
	}
	dw, err := NewDiskWriterFormat(dst, src.Schema(), version)
	if err != nil {
		return err
	}
	// The writer stages into a temp file and renames it over dst on
	// Close. Commit with the mode a direct write would have produced —
	// the source file's own mode when it has one (preserving a private
	// 0600 source's privacy), else the 0644-under-umask of a fresh
	// create.
	dw.commitMode = outputMode(storagePathsOf(src))
	if clusterAttr >= 0 {
		if err := dw.ClusterBy(clusterAttr); err != nil {
			dw.Discard()
			return err
		}
	}
	if err := appendAll(src, dw.Append); err != nil {
		dw.Discard()
		return err
	}
	return dw.Close()
}

// outputMode returns the permission bits a staged output file should
// carry: those of the first stat-able sibling/source path, or — when
// none exists — whatever a plain os.Create yields under the current
// umask, measured with a throwaway probe file (reading the umask
// directly would mean temporarily setting it: racy process-wide
// state).
func outputMode(siblings []string) os.FileMode {
	for _, p := range siblings {
		if st, err := os.Stat(p); err == nil {
			return st.Mode().Perm()
		}
	}
	dir, err := os.MkdirTemp("", "optrule-mode-*")
	if err != nil {
		return 0o600 // conservative fallback
	}
	defer os.RemoveAll(dir)
	probe := filepath.Join(dir, "probe")
	//optlint:ignore atomicwrite throwaway probe in a private temp dir, created only to measure the umask; no destination data at stake
	f, err := os.Create(probe)
	if err != nil {
		return 0o600
	}
	//optlint:ignore closecheck the probe's content is irrelevant (only its stat mode is read); a lost write cannot corrupt anything
	f.Close()
	st, err := os.Stat(probe)
	if err != nil {
		return 0o600
	}
	return st.Mode().Perm()
}
