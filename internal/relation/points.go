package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
)

// NumericPointReader is the point-read method of Relation. Sampling
// uses it: Algorithm 3.1 needs only S = M·sampleFactor values per
// attribute, but the largest sorted sample index lands within a hair of
// the last row, so a "bounded" sequential scan reads and decodes
// essentially the whole column to deliver a few thousand values. Point
// reads fetch exactly the sampled cells — 8 bytes per sample in the
// counted-I/O cost model — which is the one access pattern where the
// paper's small-sorted-sample premise beats its sequential-scan
// premise.
type NumericPointReader interface {
	ReadNumericPoints(attr int, rows []int, out []float64) error
}

// ReadNumericPoints implements Relation by direct column indexing.
func (r *MemoryRelation) ReadNumericPoints(attr int, rows []int, out []float64) error {
	// NumericColumn captures the column header under the relation's read
	// lock; rows beyond its captured length (concurrent appends) are out
	// of range for this call, matching NumTuples at capture time.
	col, err := r.NumericColumn(attr)
	if err != nil {
		return err
	}
	if len(out) != len(rows) {
		return fmt.Errorf("relation: %d rows but %d outputs", len(rows), len(out))
	}
	for i, row := range rows {
		if row < 0 || row >= len(col) {
			return fmt.Errorf("relation: point read row %d out of [0,%d)", row, len(col))
		}
		out[i] = col[row]
	}
	return nil
}

// validatePointRead checks the shared preconditions of the disk
// implementations on rows offset by base (see readNumericPoints).
func (dr *DiskRelation) validatePointRead(attr int, rows []int, base int, out []float64) error {
	if attr < 0 || attr >= len(dr.schema) || dr.schema[attr].Kind != Numeric {
		return fmt.Errorf("relation: point read attribute %d is not a numeric column", attr)
	}
	if len(out) != len(rows) {
		return fmt.Errorf("relation: %d rows but %d outputs", len(rows), len(out))
	}
	for i, row := range rows {
		if row -= base; row < 0 || row >= dr.numRows {
			return fmt.Errorf("relation: point read row %d out of [0,%d)", row, dr.numRows)
		}
		if i > 0 && rows[i] < rows[i-1] {
			return fmt.Errorf("relation: point read rows not sorted at %d", i)
		}
	}
	return nil
}

// ErrBusy is returned by Close when scans or point reads are still in
// flight on the relation: releasing the point-read mapping under a
// concurrent reader would be a use-after-unmap, so Close refuses with
// a defined error instead of racing. Callers retry after their
// operations drain; the relation is untouched.
var ErrBusy = errors.New("relation: close during active scan")

// Close releases resources the relation holds beyond per-scan file
// handles — today, the point-read memory mapping. It is safe to call
// on a relation that never served point reads, and the relation stays
// usable afterwards (subsequent point reads fall back to positioned
// reads). Calling Close while scans or point reads are in flight
// returns ErrBusy and releases nothing.
func (dr *DiskRelation) Close() error {
	if !dr.ops.TryLock() {
		return fmt.Errorf("relation: %s: %w", dr.path, ErrBusy)
	}
	defer dr.ops.Unlock()
	// Fire the map-once latch (a no-op if a point read already fired it)
	// so the mapping can never re-arm after Close: without this, a Close
	// that PRECEDES the first point read would leave mmapOnce cocked,
	// and a later ReadNumericPoints would map the file on a relation the
	// caller believes closed — a mapping nothing would ever release.
	dr.mmapOnce.Do(func() {})
	if dr.mmapData == nil {
		return nil
	}
	data := dr.mmapData
	dr.mmapData = nil
	return munmapFile(data)
}

// pointData lazily memory-maps the relation file for point reads,
// returning nil when mapping is unavailable (non-unix platforms, mmap
// failure, empty file) — callers then use positioned reads.
func (dr *DiskRelation) pointData() []byte {
	dr.mmapOnce.Do(func() {
		f, err := os.Open(dr.path)
		if err != nil {
			return
		}
		defer f.Close()
		if data, err := mmapFile(f); err == nil {
			dr.mmapData = data
		}
	})
	return dr.mmapData
}

// pointSource serves the file bytes point reads need: from the
// point-read mapping when there is one, else by positioned reads.
type pointSource struct {
	path string
	data []byte
	f    *os.File
	buf  [16]byte // the widest positioned fetch is a FOR header's 9 bytes
}

// at returns the n file bytes at offset off; the slice is valid until
// the next call.
func (s *pointSource) at(off int64, n int) ([]byte, error) {
	if s.data == nil {
		if _, err := uncountedReadAt(s.f, s.buf[:n], off); err != nil {
			return nil, fmt.Errorf("relation: point read of %s: %w", s.path, err)
		}
		return s.buf[:n], nil
	}
	if off < 0 || off+int64(n) > int64(len(s.data)) {
		return nil, fmt.Errorf("relation: point read of %s out of mapped range", s.path)
	}
	return s.data[off : off+int64(n)], nil
}

// pointOffset returns the byte offset of the given row's value in the
// numeric column at dense position p of a v1 file: a fixed row stride.
func (dr *DiskRelation) pointOffset(p, row int) int64 {
	return dr.dataOff + int64(row)*int64(dr.rowSize) + int64(8*p)
}

// ReadNumericPoints implements Relation for all disk
// formats: the value's location is computable directly (v1: fixed row
// stride; v2/v3: the block entry's offset plus, for encoded v3 blocks,
// O(1) bit arithmetic into the payload — never a block decode), so
// each unique row costs a handful of bytes — served from a
// lazily-created read-only mapping of the file when the platform
// supports it, or positioned reads otherwise. Duplicate rows are
// served from the previous value. BytesRead grows by a flat 8 per
// unique row in EVERY format — the counted cost model's point-read
// price, versus a whole column block per group for a scan — even
// though a v3 packed value physically touches fewer bytes.
func (dr *DiskRelation) ReadNumericPoints(attr int, rows []int, out []float64) error {
	return dr.readNumericPoints(attr, rows, 0, out)
}

// readNumericPoints is ReadNumericPoints of rows offset by base: it
// reads this relation's row rows[i]−base into out[i]. A sharded
// relation serves each shard's run of its global rows this way, with
// the shard's first global row as base, so it never copies the rows.
func (dr *DiskRelation) readNumericPoints(attr int, rows []int, base int, out []float64) error {
	dr.ops.RLock()
	defer dr.ops.RUnlock()
	if err := dr.validatePointRead(attr, rows, base, out); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	p := dr.numPos[attr]
	src := &pointSource{path: dr.path, data: dr.pointData()}
	if src.data == nil {
		f, err := os.Open(dr.path)
		if err != nil {
			return err
		}
		defer f.Close()
		src.f = f
	}
	read := 0
	g, gRows := -1, 0
	var blk *blockEntry // block group g's block of the column (v2/v3)
	for i, row := range rows {
		if i > 0 && row == rows[i-1] {
			out[i] = out[i-1] // with-replacement duplicate
			continue
		}
		row -= base
		read++
		var off int64
		if dr.version == DiskFormatV1 {
			off = dr.pointOffset(p, row)
		} else {
			// Sorted rows stay in one group for long runs: look its block
			// up and check it once per group.
			if row/dr.groupRows != g {
				g = row / dr.groupRows
				gRows, blk = dr.rowsInGroup(g), dr.numBlock(g, p)
				if blk.enc == v3EncRaw && blk.encLen != 8*gRows {
					return fmt.Errorf("relation: %s: raw block holds %d bytes, %d rows need %d", dr.path, blk.encLen, gRows, 8*gRows)
				}
			}
			r := row - g*dr.groupRows
			if blk.enc != v3EncRaw {
				v, err := dr.blockPointValue(blk, r, gRows, src)
				if err != nil {
					return err
				}
				out[i] = v
				continue
			}
			off = blk.off + int64(8*r)
		}
		b, err := src.at(off, 8)
		if err != nil {
			return err
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	dr.bytesRead.Add(int64(read) * 8)
	return nil
}
