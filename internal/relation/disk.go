package relation

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Three on-disk formats share the "OPTR" magic and header prefix and
// are negotiated by the version field; OpenDisk reads all of them,
// DiskWriter writes any.
//
// Format v1 — row-major (little endian):
//
//	magic   [4]byte  "OPTR"
//	version uint32   1
//	nattrs  uint32
//	per attribute: kind uint8, nameLen uint16, name []byte
//	numRows uint64   (patched on Close)
//	rows: per row, one float64 per numeric attribute in schema order,
//	      then ceil(nbool/8) bytes of packed Boolean values (bit i of
//	      byte i/8 is the i-th Boolean attribute, LSB first).
//
// Fixed-width rows keep the scan sequential and make row offsets
// computable, but every scan pays for all 8·d bytes of each tuple even
// when it needs a single column.
//
// Format v2 — column-major block groups — stores each column
// contiguously within groups of GroupRows tuples, so a scan selecting
// k of d columns reads ~k/d of the bytes; see diskv2.go for the layout.
//
// Format v3 — compressed column-major block groups — keeps the v2
// block-group layout but encodes each column block (delta bit packing,
// dictionary coding, bitmaps, raw fallback) and stores per-block zone
// maps in the directory so predicated scans skip whole groups; see
// diskv3.go.
//
// One block-group engine (diskblock.go) writes, opens, scans and
// point-reads both v2 and v3 files; only the directory encoding
// differs between them.

var diskMagic = [4]byte{'O', 'P', 'T', 'R'}

// On-disk format versions.
const (
	// DiskFormatV1 is the original row-major format.
	DiskFormatV1 = 1
	// DiskFormatV2 is the column-major block-group format.
	DiskFormatV2 = 2
	// DiskFormatV3 is the compressed column-major block-group format
	// with per-block zone maps.
	DiskFormatV3 = 3
)

// counts returns the schema's numeric and Boolean attribute counts.
func (s Schema) counts() (nums, bools int) {
	for _, a := range s {
		if a.Kind == Numeric {
			nums++
		} else {
			bools++
		}
	}
	return nums, bools
}

// rowWidth returns the encoded size in bytes of one v1 tuple.
func rowWidth(s Schema) int {
	nums, bools := s.counts()
	return 8*nums + (bools+7)/8
}

// DiskWriter streams tuples into any binary on-disk format:
// NewDiskWriter writes v1, NewDiskWriterV2 v2 and NewDiskWriterV3 v3
// (NewDiskWriterFormat picks by version).
type DiskWriter struct {
	f       *os.File
	w       *bufio.Writer
	schema  Schema
	version int
	nums    int
	bools   int
	rows    uint64
	rowsOff int64
	closed  bool

	// Crash safety: f is a temp file in dst's directory; a successful
	// Close renames it over dst (commit), every failure path removes it
	// (abort/Discard). The destination is either the previous complete
	// file or the new complete file — never a truncation. commitMode, if
	// nonzero, overrides the permissions the committed file gets
	// (convertFile preserves the source's mode through it).
	dst        string
	tmp        string
	commitMode os.FileMode

	// v1 state: one encoded row, reused.
	rowBuf []byte

	// v2/v3 state (see diskblock.go): the pending block group's
	// columns, flushed every groupRows tuples, the entries of every
	// block written so far (the directory Close writes), the next
	// block's file offset, and the encoding scratch.
	groupRows int
	colNums   [][]float64
	colBools  [][]byte
	pending   int
	blocks    []blockEntry
	off       int64
	encodeBuf []byte
	scratch   []uint64

	// cluster state (see cluster.go): while clustering, Append buffers
	// whole columns instead of streaming them into groups, and Close
	// replays the rows in cluster-key order through the normal path.
	clustering  bool
	clusterAttr int
	bufNums     [][]float64
	bufBools    [][]bool
	bufRows     int
}

// writeDiskHeader writes the common header prefix (magic, version,
// schema) and the row-count placeholder, returning the offset of the
// row-count field.
func writeDiskHeader(w *bufio.Writer, schema Schema, version int) (rowsOff int64, err error) {
	if _, err := w.Write(diskMagic[:]); err != nil {
		return 0, err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(version))
	w.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(schema)))
	w.Write(u32[:])
	rowsOff = int64(4 + 4 + 4)
	for _, a := range schema {
		w.WriteByte(byte(a.Kind))
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], uint16(len(a.Name)))
		w.Write(u16[:])
		w.WriteString(a.Name)
		rowsOff += 1 + 2 + int64(len(a.Name))
	}
	// Placeholder row count, patched in Close.
	var u64 [8]byte
	if _, err := w.Write(u64[:]); err != nil {
		return 0, err
	}
	return rowsOff, nil
}

// createStaged opens the staging temp file for a writer destined for
// path: same directory (so the commit rename cannot cross file
// systems), removed on every failure path.
func createStaged(path string) (*os.File, error) {
	return os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
}

// abort closes and removes the staging file after a failed write,
// leaving the destination untouched.
func (dw *DiskWriter) abort() {
	dw.f.Close()
	os.Remove(dw.tmp)
}

// commit finishes the staged write with the destination's
// permissions (or commitMode, when set).
func (dw *DiskWriter) commit() error {
	mode := dw.commitMode
	if mode == 0 {
		mode = outputMode([]string{dw.dst})
	}
	return commitStaged(dw.f, dw.dst, mode)
}

// commitStaged is the one commit of a staged write: close the temp file
// f (delayed write errors surface here), give it mode (CreateTemp files
// are 0600), and atomically rename it over dst. On any failure the temp
// file is removed and dst keeps whatever it held.
func commitStaged(f *os.File, dst string, mode os.FileMode) error {
	tmp := f.Name()
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, mode); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Discard abandons the staged write: the temp file is removed and the
// destination keeps whatever it held before the writer was created.
// Callers that fail mid-stream must Discard rather than Close — Close
// would commit a short but well-formed file over the destination. A
// no-op after Close or a second Discard.
func (dw *DiskWriter) Discard() {
	if dw.closed {
		return
	}
	dw.closed = true
	dw.abort()
}

// NewDiskWriter creates a v1 relation file at path: the data is staged
// in a temp file beside path and renamed over it by a successful
// Close. Call Append for each tuple and Close to finalize (or Discard
// to abandon).
func NewDiskWriter(path string, schema Schema) (*DiskWriter, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	f, err := createStaged(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	dw := &DiskWriter{f: f, w: w, schema: schema, version: DiskFormatV1, rowBuf: make([]byte, rowWidth(schema)), dst: path, tmp: f.Name()}
	rowsOff, err := writeDiskHeader(w, schema, DiskFormatV1)
	if err != nil {
		dw.abort()
		return nil, err
	}
	dw.rowsOff = rowsOff
	dw.nums, dw.bools = schema.counts()
	return dw, nil
}

// Append writes one tuple: nums in numeric schema order, bools in
// Boolean schema order.
func (dw *DiskWriter) Append(nums []float64, bools []bool) error {
	if dw.closed {
		return fmt.Errorf("relation: append to closed DiskWriter")
	}
	if len(nums) != dw.nums || len(bools) != dw.bools {
		return fmt.Errorf("relation: tuple shape (%d numeric, %d bool) does not match schema (%d, %d)",
			len(nums), len(bools), dw.nums, dw.bools)
	}
	if dw.clustering {
		for j, v := range nums {
			dw.bufNums[j] = append(dw.bufNums[j], v)
		}
		for j, b := range bools {
			dw.bufBools[j] = append(dw.bufBools[j], b)
		}
		dw.bufRows++
		return nil
	}
	if dw.version != DiskFormatV1 {
		return dw.appendBlockRow(nums, bools)
	}
	buf := dw.rowBuf
	off := 0
	for _, v := range nums {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	for i := off; i < len(buf); i++ {
		buf[i] = 0
	}
	for i, b := range bools {
		if b {
			buf[off+i/8] |= 1 << uint(i%8)
		}
	}
	if _, err := dw.w.Write(buf); err != nil {
		return err
	}
	dw.rows++
	return nil
}

// Close flushes buffered rows (for v2/v3 also the tail group and the
// directory, see writeDirectory), patches the row count into the header,
// closes the staging file, and renames it over the destination — the
// commit point of the staged write.
func (dw *DiskWriter) Close() error {
	if dw.closed {
		return nil
	}
	err := dw.finish() // before closed is set: a clustered replay Appends
	dw.closed = true
	if err != nil {
		dw.abort()
		return err
	}
	return dw.commit()
}

// finish is Close's write phase: everything but the commit. The
// header patch is numRows, then for v2/v3 the tail after it (groupRows
// again, numGroups, dirOff).
func (dw *DiskWriter) finish() error {
	if dw.clustering {
		if err := dw.replayClustered(); err != nil {
			return err
		}
	}
	var patch [8 + 4 + 4 + 8]byte
	n := 8
	if dw.version != DiskFormatV1 {
		numGroups, dirOff, err := dw.writeDirectory()
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(patch[8:], uint32(dw.groupRows))
		binary.LittleEndian.PutUint32(patch[12:], uint32(numGroups))
		binary.LittleEndian.PutUint64(patch[16:], uint64(dirOff))
		n = len(patch)
	}
	binary.LittleEndian.PutUint64(patch[:], dw.rows)
	if err := dw.w.Flush(); err != nil {
		return err
	}
	_, err := dw.f.WriteAt(patch[:n], dw.rowsOff)
	return err
}

// DiskRelation is a Relation backed by either binary on-disk format. It
// keeps only the schema and layout metadata in memory; scans stream
// rows through fixed-size buffers, which is what makes it a faithful
// stand-in for the paper's larger-than-memory databases.
type DiskRelation struct {
	path    string
	schema  Schema
	version int
	numRows int
	rowSize int   // v1: encoded bytes per row
	dataOff int64 // first byte after the header
	nums    int
	bools   int
	numPos  []int // schema index -> dense numeric position
	boolPos []int // schema index -> dense boolean position

	// v2/v3 layout (see diskblock.go): every group's block entries,
	// numeric columns then Boolean ones in dense order — read from a v3
	// directory, derived from a v2 one.
	groupRows int
	numGroups int
	blocks    []blockEntry

	// bytesRead counts payload bytes delivered from disk by scans — the
	// deterministic counted-I/O model experiments and tests compare
	// formats by (header and directory reads are excluded).
	bytesRead atomic.Int64

	// Point-read acceleration: the file is memory-mapped lazily on the
	// first ReadNumericPoints call (unix only; other platforms and mmap
	// failures fall back to positioned reads). The mapping lives as
	// long as the relation — read-only, paged in on demand, so it costs
	// address space, not resident memory.
	mmapOnce sync.Once
	mmapData []byte

	// ops tracks in-flight scans and point reads (read-locked for their
	// duration) so Close can refuse with ErrBusy — a defined error —
	// instead of unmapping the point-read mapping under a concurrent
	// reader. Close only try-locks, so readers never block each other.
	ops sync.RWMutex
}

// OpenDisk opens a file written by DiskWriter, negotiating the format
// version from the header.
func OpenDisk(path string) (*DiskRelation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var magic [4]byte
	if _, err := metaReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("relation: reading magic: %w", err)
	}
	if magic != diskMagic {
		return nil, fmt.Errorf("relation: %s is not an optrule data file", path)
	}
	var u32 [4]byte
	if _, err := metaReadFull(r, u32[:]); err != nil {
		return nil, err
	}
	version := int(binary.LittleEndian.Uint32(u32[:]))
	if version != DiskFormatV1 && version != DiskFormatV2 && version != DiskFormatV3 {
		return nil, fmt.Errorf("relation: unsupported file version %d", version)
	}
	if _, err := metaReadFull(r, u32[:]); err != nil {
		return nil, err
	}
	nattrs := int(binary.LittleEndian.Uint32(u32[:]))
	if nattrs <= 0 || nattrs > 1<<16 {
		return nil, fmt.Errorf("relation: implausible attribute count %d", nattrs)
	}
	schema := make(Schema, 0, nattrs)
	headerLen := int64(4 + 4 + 4)
	for i := 0; i < nattrs; i++ {
		kindB, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		var u16 [2]byte
		if _, err := metaReadFull(r, u16[:]); err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(u16[:]))
		name := make([]byte, nameLen)
		if _, err := metaReadFull(r, name); err != nil {
			return nil, err
		}
		schema = append(schema, Attribute{Name: string(name), Kind: Kind(kindB)})
		headerLen += 1 + 2 + int64(nameLen)
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	var u64 [8]byte
	if _, err := metaReadFull(r, u64[:]); err != nil {
		return nil, err
	}
	numRows := binary.LittleEndian.Uint64(u64[:])
	headerLen += 8
	if numRows > 1<<48 {
		return nil, fmt.Errorf("relation: implausible row count %d", numRows)
	}
	dr := &DiskRelation{
		path:    path,
		schema:  schema,
		version: version,
		numRows: int(numRows),
		rowSize: rowWidth(schema),
		dataOff: headerLen,
		numPos:  make([]int, len(schema)),
		boolPos: make([]int, len(schema)),
	}
	for i, a := range schema {
		if a.Kind == Numeric {
			dr.numPos[i] = dr.nums
			dr.nums++
		} else {
			dr.boolPos[i] = dr.bools
			dr.bools++
		}
	}
	if version != DiskFormatV1 {
		if err := dr.openBlockMeta(f, r); err != nil {
			return nil, err
		}
		return dr, nil
	}
	// Sanity-check the file size against the declared row count.
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	want := headerLen + int64(numRows)*int64(dr.rowSize)
	if st.Size() < want {
		return nil, fmt.Errorf("relation: %s truncated: %d bytes, need %d for %d rows", path, st.Size(), want, numRows)
	}
	return dr, nil
}

// Schema implements Relation.
func (dr *DiskRelation) Schema() Schema { return dr.schema }

// NumTuples implements Relation.
func (dr *DiskRelation) NumTuples() int { return dr.numRows }

// Version returns the on-disk format version (DiskFormatV1,
// DiskFormatV2, or DiskFormatV3).
func (dr *DiskRelation) Version() int { return dr.version }

// StoragePaths returns the single file backing the relation, mirroring
// ShardedRelation.StoragePaths so conversion helpers can refuse
// writing a destination onto its own source for either backend.
func (dr *DiskRelation) StoragePaths() []string { return []string{dr.path} }

// GroupRows returns the rows per block group for v2/v3 files and 0 for
// v1.
func (dr *DiskRelation) GroupRows() int {
	return dr.groupRows
}

// BytesRead returns the total payload bytes scans have delivered from
// disk since open (or the last ResetBytesRead). Header and directory
// reads are excluded, so the counter is a deterministic I/O cost model:
// v1 scans cost rowWidth bytes per row regardless of the column set;
// v2 and v3 scans cost the scanned rows of the selected raw and bitmap
// blocks plus, in v3, the PHYSICAL post-compression bytes of each
// selected encoded block once per group touched — so a v3 scan of
// compressible columns counts strictly fewer bytes than the same v2
// scan, and a zone-skipped group counts zero. Point reads
// charge a flat 8 bytes per unique row in every format. Safe for
// concurrent use.
func (dr *DiskRelation) BytesRead() int64 { return dr.bytesRead.Load() }

// ResetBytesRead zeroes the BytesRead counter.
func (dr *DiskRelation) ResetBytesRead() { dr.bytesRead.Store(0) }

// ScanAlignment implements ScanAligner: v2/v3 scans are cheapest when
// segment boundaries coincide with block-group boundaries (a split
// group costs two partial — or, compressed, two full — column-block
// reads instead of one); v1 rows are individually addressable.
func (dr *DiskRelation) ScanAlignment() int {
	if dr.version != DiskFormatV1 {
		return dr.groupRows
	}
	return 1
}

// Scan implements Relation by streaming the whole file once.
func (dr *DiskRelation) Scan(cols ColumnSet, fn func(*Batch) error) error {
	return dr.ScanRange(0, dr.numRows, cols, fn)
}

// ScanRange streams rows [start, end) through fn. Each call opens its
// own file handle, so disjoint ranges may be scanned concurrently — the
// access pattern of the parallel bucketing Algorithm 3.2. On v2 and v3
// files the block-group engine reads and decodes one window at a time
// on the caller's goroutine (scanBlocks in diskblock.go); v1 files
// stream rows through the loop below.
func (dr *DiskRelation) ScanRange(start, end int, cols ColumnSet, fn func(*Batch) error) error {
	dr.ops.RLock()
	defer dr.ops.RUnlock()
	if err := cols.Validate(dr.schema); err != nil {
		return err
	}
	if start < 0 || end > dr.numRows || start > end {
		return fmt.Errorf("relation: scan range [%d,%d) out of [0,%d)", start, end, dr.numRows)
	}
	if start == end {
		return nil
	}
	if dr.version != DiskFormatV1 {
		return dr.scanBlocks(start, end, cols, nil, nil, fn)
	}
	f, err := os.Open(dr.path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(dr.dataOff+int64(start)*int64(dr.rowSize), io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 1<<20)

	batch := &Batch{
		Numeric: make([][]float64, len(cols.Numeric)),
		Bool:    make([][]bool, len(cols.Bool)),
	}
	for k := range batch.Numeric {
		batch.Numeric[k] = make([]float64, DefaultBatchSize)
	}
	for k := range batch.Bool {
		batch.Bool[k] = make([]bool, DefaultBatchSize)
	}
	rowBuf := make([]byte, dr.rowSize*DefaultBatchSize)
	boolBase := 8 * dr.nums

	for at := start; at < end; {
		n := DefaultBatchSize
		if at+n > end {
			n = end - at
		}
		if _, err := payloadReadFull(r, rowBuf[:n*dr.rowSize], &dr.bytesRead); err != nil {
			return fmt.Errorf("relation: reading rows %d..%d of %s: %w", at, at+n, dr.path, err)
		}
		for k, i := range cols.Numeric {
			dst := batch.Numeric[k][:n]
			fieldOff := 8 * dr.numPos[i]
			for row := 0; row < n; row++ {
				bits := binary.LittleEndian.Uint64(rowBuf[row*dr.rowSize+fieldOff:])
				dst[row] = math.Float64frombits(bits)
			}
			batch.Numeric[k] = dst
		}
		for k, i := range cols.Bool {
			dst := batch.Bool[k][:n]
			bit := dr.boolPos[i]
			byteOff := boolBase + bit/8
			mask := byte(1) << uint(bit%8)
			for row := 0; row < n; row++ {
				dst[row] = rowBuf[row*dr.rowSize+byteOff]&mask != 0
			}
			batch.Bool[k] = dst
		}
		batch.Len = n
		if err := fn(batch); err != nil {
			return err
		}
		at += n
	}
	return nil
}

// RangeScanner is Relation: every relation scans row ranges.
type RangeScanner = Relation

// ScanAligner is implemented by the disk and sharded backends: their
// block groups make multiples of ScanAlignment the cheapest segment
// boundaries. The engine does not consult it; it plans scans from
// Relation.ScanCosts, whose atoms are the block groups themselves.
type ScanAligner interface {
	ScanAlignment() int
}

// SegmentSnapper is implemented by the sharded backend, whose preferred
// cuts (shard boundaries plus each shard's own block-group grid) are
// not multiples of one stride. SnapSegment returns the preferred
// boundary nearest to cut, monotone in cut and within [0, NumTuples()].
// The engine does not consult it; see ScanAligner.
type SegmentSnapper interface {
	SnapSegment(cut int) int
}
