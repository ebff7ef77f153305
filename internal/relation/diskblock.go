package relation

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"unsafe"

	"optrule/internal/freelist"
)

// The block-group engine of formats v2 and v3. Both store rows in block
// groups of groupRows tuples (the last group may be shorter), each
// group one column block per attribute — numeric columns in dense
// order, then Boolean columns — and share the header tail
//
//	groupRows uint32   rows per full block group
//	numGroups uint32   (patched on Close)
//	dirOff    uint64   file offset of the directory (patched on Close)
//
// after numRows. They differ only in the directory at dirOff: a v2
// group is exactly a v3 group whose numeric blocks are raw and whose
// Boolean blocks are bitmaps, laid out back to back, so v2 records one
// offset per group (diskv2.go) while v3 records every block's offset,
// encoding and zone map (diskv3.go). The reader expands either
// directory into the same per-block entries; from there on one writer
// flush, one scan pipeline and one point reader serve both versions.

const (
	// DefaultGroupRows is the block-group size NewDiskWriterV2 and
	// NewDiskWriterV3 use when none is given: 64Ki rows keeps each raw
	// numeric column block at 512 KB — large enough for sequential-read
	// bandwidth, small enough that a handful of in-flight groups stay
	// comfortably in memory.
	DefaultGroupRows = 1 << 16
	// maxGroupRows bounds declared group sizes to keep hostile headers
	// from demanding absurd buffers.
	maxGroupRows = 1 << 22
	// scanReadAhead is the depth of the scan pipeline: how many fetched
	// windows may exist at once (the consumer's current one plus the
	// prefetcher's read-ahead).
	scanReadAhead = 2
)

// blockEntry is one column block of one block group: its file
// location, its encoding, and (v3 only) its zone map — min/max over
// the non-NaN values of a numeric block (min also anchors encDelta),
// trueCount of a Boolean block. v2 blocks carry no zone map, which is
// why pruning stays v3-only.
type blockEntry struct {
	off      int64
	encLen   int
	enc      uint8
	min, max float64
	trueCnt  int
}

// numBlock returns the entry of group g's numeric column at dense
// position p.
func (dr *DiskRelation) numBlock(g, p int) *blockEntry {
	return &dr.blocks[g*(dr.nums+dr.bools)+p]
}

// boolBlock returns the entry of group g's Boolean column at dense
// position q.
func (dr *DiskRelation) boolBlock(g, q int) *blockEntry {
	return &dr.blocks[g*(dr.nums+dr.bools)+dr.nums+q]
}

// rowsInGroup returns the row count of block group g.
func (dr *DiskRelation) rowsInGroup(g int) int {
	if g == dr.numGroups-1 {
		return dr.numRows - g*dr.groupRows
	}
	return dr.groupRows
}

// ---------------------------------------------------------------------
// Writer.

// newBlockWriter creates a v2 or v3 relation file at path, staged in a
// temp file beside it and renamed over it by a successful Close.
// groupRows 0 selects DefaultGroupRows.
func newBlockWriter(path string, schema Schema, groupRows, version int) (*DiskWriter, error) {
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
		f: f, w: w, schema: schema, version: version,
		groupRows: groupRows,
		dst:       path,
		tmp:       f.Name(),
	}
	rowsOff, err := writeDiskHeader(w, schema, version)
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
	dw.nums, dw.bools = schema.counts()
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

// appendBlockRow buffers one tuple into the pending block group,
// flushing it when full.
func (dw *DiskWriter) appendBlockRow(nums []float64, bools []bool) error {
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

// flushGroup writes the pending block group's columns back to back and
// records their block entries. v3 encodes each numeric block with the
// smallest encoding and keeps its zone map; v2 writes every numeric
// block raw.
func (dw *DiskWriter) flushGroup() error {
	g := dw.pending
	if g == 0 {
		return nil
	}
	if dw.encodeBuf == nil {
		dw.encodeBuf = make([]byte, 8*dw.groupRows)
	}
	v3 := dw.version == DiskFormatV3
	for _, col := range dw.colNums {
		blk := blockEntry{off: dw.off, encLen: 8 * g, enc: v3EncRaw}
		bw, dict := 0, []float64(nil)
		if v3 {
			blk.min, blk.max = v3MinMax(col)
			blk.enc, blk.encLen, bw, dict = v3PlanNumeric(col, blk.min, blk.max)
		}
		var payload []byte
		payload, dw.scratch = v3EncodeNumeric(col, blk.enc, blk.encLen, bw, dict, blk.min, dw.encodeBuf, dw.scratch)
		if _, err := dw.w.Write(payload); err != nil {
			return err
		}
		dw.blocks = append(dw.blocks, blk)
		dw.off += int64(blk.encLen)
	}
	for _, col := range dw.colBools {
		if _, err := dw.w.Write(col); err != nil {
			return err
		}
		blk := blockEntry{off: dw.off, encLen: len(col), enc: v3EncBitmap}
		if v3 {
			for _, b := range col {
				blk.trueCnt += bits.OnesCount8(b)
			}
		}
		dw.blocks = append(dw.blocks, blk)
		dw.off += int64(len(col))
	}
	for j := range dw.colNums {
		dw.colNums[j] = dw.colNums[j][:0]
	}
	for j := range dw.colBools {
		dw.colBools[j] = dw.colBools[j][:0]
	}
	dw.pending = 0
	return nil
}

// writeDirectory flushes the tail group and writes the version's
// directory after the data, returning the header's numGroups and
// dirOff.
func (dw *DiskWriter) writeDirectory() (numGroups int, dirOff int64, err error) {
	if err := dw.flushGroup(); err != nil {
		return 0, 0, err
	}
	cols := dw.nums + dw.bools
	numGroups = len(dw.blocks) / cols
	var entry [v3NumEntrySize]byte
	for g := 0; g < numGroups; g++ {
		blks := dw.blocks[g*cols : (g+1)*cols]
		if dw.version == DiskFormatV2 {
			rows := min(int(dw.rows)-g*dw.groupRows, dw.groupRows)
			if _, err := dw.w.Write(v2DirEntry(entry[:], blks[0].off, rows)); err != nil {
				return 0, 0, err
			}
			continue
		}
		for p := range blks {
			if _, err := dw.w.Write(v3DirEntry(entry[:], &blks[p], p >= dw.nums)); err != nil {
				return 0, 0, err
			}
		}
	}
	return numGroups, dw.off, nil
}

// ---------------------------------------------------------------------
// Reader.

// openBlockMeta parses the header tail v2 and v3 share, checks it
// against the row count and the file size, reads the directory, and
// expands it into per-block entries through the version's group
// parser. r is positioned just after numRows; dr.dataOff still holds
// the offset of the position r is at and is advanced past the tail.
// Every declared quantity is cross-checked before any group-sized
// allocation, so corrupt or truncated files fail with a clear error
// instead of a panic or an absurd allocation.
func (dr *DiskRelation) openBlockMeta(f *os.File, r *bufio.Reader) error {
	var tail [16]byte
	if _, err := metaReadFull(r, tail[:]); err != nil {
		return fmt.Errorf("relation: %s: reading v%d header: %w", dr.path, dr.version, err)
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
	parse, entrySize := dr.parseV2Group, v2DirEntrySize
	if dr.version == DiskFormatV3 {
		parse, entrySize = dr.parseV3Group, v3GroupEntrySize(dr.nums, dr.bools)
	}
	dirBytes := int64(numGroups) * int64(entrySize)
	if dirOff+dirBytes > st.Size() {
		return fmt.Errorf("relation: %s truncated: %d bytes, directory needs [%d, %d)",
			dr.path, st.Size(), dirOff, dirOff+dirBytes)
	}
	if dr.version == DiskFormatV2 && numGroups > 0 {
		// A v3 directory costs file bytes per block entry; a v2 one only
		// per group, and each group is checked against the data region on
		// its own, so groups sharing one offset could declare far more
		// block entries than the file holds. Valid v2 groups tile the data
		// region, so require the bytes they must cover to fit it.
		region := dirOff - dr.dataOff
		full := groupBytesV2(dr.nums, dr.bools, dr.groupRows)
		last := groupBytesV2(dr.nums, dr.bools, dr.numRows-(numGroups-1)*dr.groupRows)
		if last > region || (full > 0 && int64(numGroups-1) > (region-last)/full) {
			return fmt.Errorf("relation: %s: %d block groups of %d rows do not fit the %d-byte data region",
				dr.path, numGroups, dr.groupRows, region)
		}
	}
	dir := make([]byte, dirBytes)
	if _, err := metaReadAt(f, dir, dirOff); err != nil {
		return fmt.Errorf("relation: %s: reading block directory: %w", dr.path, err)
	}
	dr.numGroups = numGroups
	dr.blocks = make([]blockEntry, numGroups*(dr.nums+dr.bools))
	for g := 0; g < numGroups; g++ {
		if err := parse(g, dir[g*entrySize:(g+1)*entrySize], dirOff); err != nil {
			return err
		}
	}
	return nil
}

// blockFetch is one window of a block-group scan, passed by value (no
// allocation per window) from the prefetcher to the decode loop:
// group-relative rows [first, first+rows) of block group g. buf holds,
// in selection order, each selected numeric column's bytes — the
// window's rows of a raw block, or the whole block of an encoded one on
// the group's first window (head) — then each selected Boolean column's
// byte span of the window. A skip fetch carries a zone-refuted group's
// remaining rows and no data.
type blockFetch struct {
	group int
	first int
	rows  int
	head  bool
	skip  bool
	buf   []byte
	err   error
}

// blockBufPool recycles fetch buffers across scans so steady-state
// pipelines allocate nothing per window. It keeps up to scanReadAhead
// buffers of at most freelist.MaxBytes per GOMAXPROCS, the buffers of
// as many concurrent scans as there are workers, through collections.
var blockBufPool = freelist.Slabs[byte]{PerProc: scanReadAhead}

// scanState is the consumer-side scratch of one block scan, reused
// window to window: the batch handed to fn, one window of values per
// selected numeric column decoded from raw blocks, the current group's
// encoded blocks decoded whole, and one window per selected Boolean.
type scanState struct {
	batch   Batch
	win     [][]float64
	grp     [][]float64
	bools   [][]bool
	scratch []uint64
}

// scanStatePool recycles scan states across scans, so the many chunk
// scans of one parallel count allocate scratch per worker, not per
// chunk, whether or not a collection runs during the count.
var scanStatePool freelist.List[*scanState]

// bytes returns the memory st's column buffers hold.
func (st *scanState) bytes() int {
	n := 8 * cap(st.scratch)
	for _, w := range st.win[:cap(st.win)] {
		n += 8 * cap(w)
	}
	for _, g := range st.grp[:cap(st.grp)] {
		n += 8 * cap(g)
	}
	for _, b := range st.bools[:cap(st.bools)] {
		n += cap(b)
	}
	return n
}

// getScanState returns a scan state cut to nums numeric and bools
// Boolean columns. A recycled state keeps every buffer long enough for
// its new role; decoded-group buffers are sized by the scan when an
// encoded block first needs one.
func getScanState(nums, bools int) *scanState {
	st, ok := scanStatePool.Get()
	if !ok {
		st = &scanState{}
	}
	st.batch.Numeric = fitColumns(st.batch.Numeric, nums, 0)
	st.batch.Bool = fitColumns(st.batch.Bool, bools, 0)
	st.win = fitColumns(st.win, nums, DefaultBatchSize)
	st.grp = fitColumns(st.grp, nums, 0)
	st.bools = fitColumns(st.bools, bools, DefaultBatchSize)
	return st
}

// fitColumns resizes cols to n columns of at least rows values, keeping
// every column buffer that is long enough.
func fitColumns[T any](cols [][]T, n, rows int) [][]T {
	if cap(cols) < n {
		cols = append(cols[:cap(cols)], make([][]T, n-cap(cols))...)
	}
	cols = cols[:n]
	for k := range cols {
		if len(cols[k]) < rows {
			cols[k] = make([]T, rows)
		}
	}
	return cols
}

// scanBlocks streams rows [start, end) of a v2 or v3 file through fn
// with an overlapped read-ahead pipeline: a prefetcher goroutine reads
// window N+1 while this goroutine decodes window N into one batch and
// runs fn. A window is up to DefaultBatchSize rows of one block group,
// cut at group-relative multiples of DefaultBatchSize and clipped to
// [start, end). Raw and bitmap blocks are row-addressable, so a window
// reads only its own rows of them (one pread per column); the cuts are
// byte-aligned, so the windows' Boolean byte spans tile each group's
// span. An encoded block is read whole with the first window of its
// group that the range touches and decoded once per group. BytesRead
// charges exactly the bytes fetched, at delivery. When pred is
// non-nil, a group whose zone maps prove no row can match is never
// read: the prefetcher sends a skip fetch, the consumer reports the
// group's rows through skipFn, and BytesRead grows by nothing. At most
// scanReadAhead windows are in flight, so memory is bounded by that
// many windows plus one decoded group of the selected encoded columns,
// whatever the relation's size.
func (dr *DiskRelation) scanBlocks(start, end int, cols ColumnSet, pred *Predicate, skipFn func(rows int) error, fn func(*Batch) error) error {
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
	if pred != nil && pred.Empty() {
		pred = nil
	}
	// A fetch buffer holds at least one full window of the selected
	// columns that are row-addressable in the first group (an unaligned
	// first row can stretch a Boolean span by one byte); a group's first
	// window grows it by that group's encoded blocks.
	winRows := min(DefaultBatchSize, dr.groupRows)
	bufCap := len(boolSel) * ((winRows+7)/8 + 1)
	for _, p := range numSel {
		if dr.numBlock(start/dr.groupRows, p).enc == v3EncRaw {
			bufCap += winRows * 8
		}
	}

	ready := make(chan blockFetch, scanReadAhead)
	free := make(chan []byte, scanReadAhead)
	for i := 0; i < scanReadAhead; i++ {
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
				if ok {
					blockBufPool.Put(fg.buf)
				}
				if !ok {
					// Channel closed and empty; fall through to free.
					ready = nil
				}
			case buf := <-free:
				blockBufPool.Put(buf)
			default:
				return
			}
		}
	}()

	// fill reads group-relative rows [first, last) of block group g.
	fill := func(g, first, last int, head bool, buf []byte) blockFetch {
		gRows := dr.rowsInGroup(g)
		rows := last - first
		byteLo := first / 8
		boolLen := (last+7)/8 - byteLo
		total := len(boolSel) * boolLen
		for _, p := range numSel {
			if blk := dr.numBlock(g, p); blk.enc == v3EncRaw {
				total += 8 * rows
			} else if head {
				total += blk.encLen
			}
		}
		if cap(buf) < total {
			buf = blockBufPool.Get(max(total, bufCap))
		}
		buf = buf[:total]
		fg := blockFetch{group: g, first: first, rows: rows, head: head, buf: buf}
		pos := 0
		for k, p := range numSel {
			blk := dr.numBlock(g, p)
			off, n := blk.off, blk.encLen
			if blk.enc == v3EncRaw {
				if blk.encLen != 8*gRows {
					fg.err = fmt.Errorf("relation: group %d column %d of %s: raw block holds %d bytes, %d rows need %d",
						g, cols.Numeric[k], dr.path, blk.encLen, gRows, 8*gRows)
					return fg
				}
				off, n = blk.off+int64(8*first), 8*rows
			} else if !head {
				continue
			}
			if _, err := uncountedReadAt(f, buf[pos:pos+n], off); err != nil {
				fg.err = fmt.Errorf("relation: reading column block of group %d of %s: %w", g, dr.path, err)
				return fg
			}
			pos += n
		}
		for _, q := range boolSel {
			if _, err := uncountedReadAt(f, buf[pos:pos+boolLen], dr.boolBlock(g, q).off+int64(byteLo)); err != nil {
				fg.err = fmt.Errorf("relation: reading boolean block of group %d of %s: %w", g, dr.path, err)
				return fg
			}
			pos += boolLen
		}
		return fg
	}

	//optlint:ignore gostmt the read-ahead prefetcher is one pipeline stage per scan (it reads group g+1 while the consumer decodes g), not a fan-out; its teardown is pinned by the leak tests
	go func() {
		defer close(prefDone)
		defer close(ready)
		for row := start; row < end; {
			g := row / dr.groupRows
			gStart := g * dr.groupRows
			first := row - gStart
			gEnd := min(dr.rowsInGroup(g), end-gStart)
			head := row == start || first == 0
			var buf []byte
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			var fg blockFetch
			if head && pred != nil && dr.v3GroupPruned(g, pred) {
				// Hand the free-list token back through the consumer.
				fg = blockFetch{group: g, first: first, rows: gEnd - first, skip: true, buf: buf}
			} else {
				fg = fill(g, first, min((first/DefaultBatchSize+1)*DefaultBatchSize, gEnd), head, buf)
			}
			select {
			case ready <- fg:
			case <-stop:
				return
			}
			if fg.err != nil {
				return
			}
			row += fg.rows
		}
	}()

	st := getScanState(len(numSel), len(boolSel))
	defer func() { scanStatePool.Put(st, st.bytes()) }()
	batch := &st.batch
	for fg := range ready {
		if fg.err != nil {
			blockBufPool.Put(fg.buf)
			return fg.err
		}
		if fg.skip {
			select {
			case free <- fg.buf:
			default:
				blockBufPool.Put(fg.buf)
			}
			if err := skipFn(fg.rows); err != nil {
				return err
			}
			continue
		}
		// Count bytes at delivery, not inside the prefetcher: a scan the
		// caller aborts early must not charge for a window whose read-ahead
		// happened to finish — whether it did is a goroutine race, and
		// BytesRead is documented as a deterministic cost model.
		dr.bytesRead.Add(int64(len(fg.buf)))
		n := fg.rows
		pos := 0
		for k, p := range numSel {
			blk := dr.numBlock(fg.group, p)
			if blk.enc == v3EncRaw {
				batch.Numeric[k] = rawFloats(st.win[k][:n], fg.buf[pos:pos+8*n])
				pos += 8 * n
				continue
			}
			if fg.head {
				gRows := dr.rowsInGroup(fg.group)
				if len(st.grp[k]) < gRows {
					st.grp[k] = make([]float64, dr.groupRows)
				}
				if err := v3DecodeNumeric(blk, fg.buf[pos:pos+blk.encLen], gRows, st.grp[k], &st.scratch); err != nil {
					blockBufPool.Put(fg.buf)
					return fmt.Errorf("relation: group %d column %d of %s: %w", fg.group, cols.Numeric[k], dr.path, err)
				}
				pos += blk.encLen
			}
			batch.Numeric[k] = st.grp[k][fg.first : fg.first+n]
		}
		boolLen := (fg.first+n+7)/8 - fg.first/8
		for k := range boolSel {
			batch.Bool[k] = decodeBits(st.bools[k][:n], fg.buf[pos:pos+boolLen], fg.first%8)
			pos += boolLen
		}
		batch.Len = n
		if err := fn(batch); err != nil {
			blockBufPool.Put(fg.buf)
			return err
		}
		select {
		case free <- fg.buf:
		default:
			blockBufPool.Put(fg.buf)
		}
	}
	return nil
}

// littleEndian reports whether this host stores a float64 in the
// files' byte order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawFloats returns the len(dst) values of a raw block's bytes src.
// On a little-endian host an 8-byte-aligned src already holds them as
// float64s, so it is returned in place, valid as long as src is; the
// batch contract (no retention past the callback) covers that, since a
// fetch buffer returns to the pipeline only after the callback.
// Otherwise, say after an encoded block of unaligned length in the
// same fetch, the values are decoded into dst.
func rawFloats(dst []float64, src []byte) []float64 {
	if littleEndian && len(dst) > 0 && uintptr(unsafe.Pointer(&src[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&src[0])), len(dst))
	}
	return decodeRaw(dst, src)
}

// decodeRaw decodes len(dst) little-endian float64 values from src and
// returns dst: the byte-order-independent path of rawFloats, taken for
// unaligned blocks and on big-endian hosts. It and decodeBits stay out
// of line: inlined into scanBlocks' consumer loop, whose many live
// values force register spills, the decode ran ~1.5x slower.
//
//go:noinline
func decodeRaw(dst []float64, src []byte) []float64 {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return dst
}

// bitBools[b] is byte b's eight bits, LSB first, as bools.
var bitBools = func() (t [256][8]bool) {
	for b := range t {
		for j := range t[b] {
			t[b][j] = b&(1<<j) != 0
		}
	}
	return t
}()

// decodeBits unpacks len(dst) bits of src, LSB first, starting at bit
// bitBase of its first byte, and returns dst. Whole source bytes copy
// eight bools at once from bitBools; an unaligned head (bitBase > 0)
// and a tail of fewer than eight bits take one bit at a time.
//
//go:noinline
func decodeBits(dst []bool, src []byte, bitBase int) []bool {
	i := 0
	for ; i < len(dst) && (bitBase+i)&7 != 0; i++ {
		bit := bitBase + i
		dst[i] = src[bit>>3]&(1<<uint(bit&7)) != 0
	}
	for j := (bitBase + i) >> 3; i+8 <= len(dst); i, j = i+8, j+1 {
		*(*[8]bool)(dst[i : i+8]) = bitBools[src[j]]
	}
	for ; i < len(dst); i++ {
		bit := bitBase + i
		dst[i] = src[bit>>3]&(1<<uint(bit&7)) != 0
	}
	return dst
}
