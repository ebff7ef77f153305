package relation

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
// and reads ~k/d of the bytes a v1 row scan would. A v2 group is a v3
// group (diskv3.go) whose numeric blocks are all raw and whose Boolean
// blocks are bitmaps, so the reader expands each directory entry into
// those per-block entries and the block-group engine of diskblock.go
// writes, scans and point-reads both versions. The directory lets the
// reader validate a file before trusting it.

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
	return newBlockWriter(path, schema, groupRows, DiskFormatV2)
}

// v2DirEntry encodes the directory entry of a group of rows tuples
// starting at off into buf.
func v2DirEntry(buf []byte, off int64, rows int) []byte {
	binary.LittleEndian.PutUint64(buf[0:], uint64(off))
	binary.LittleEndian.PutUint32(buf[8:], uint32(rows))
	return buf[:v2DirEntrySize]
}

// parseV2Group validates group g's directory entry against the row
// count and the data region [dataOff, dirOff) and expands it into the
// group's block entries: raw numeric blocks at off + p·8·rows, then
// bitmap Boolean blocks.
func (dr *DiskRelation) parseV2Group(g int, entry []byte, dirOff int64) error {
	off := int64(binary.LittleEndian.Uint64(entry))
	rows := int(binary.LittleEndian.Uint32(entry[8:]))
	if want := dr.rowsInGroup(g); rows != want {
		return fmt.Errorf("relation: %s: block group %d declares %d rows, want %d", dr.path, g, rows, want)
	}
	if end := off + groupBytesV2(dr.nums, dr.bools, rows); off < dr.dataOff || end > dirOff {
		return fmt.Errorf("relation: %s: block group %d at [%d, %d) outside data region [%d, %d)",
			dr.path, g, off, end, dr.dataOff, dirOff)
	}
	for p := 0; p < dr.nums; p++ {
		*dr.numBlock(g, p) = blockEntry{off: off, encLen: 8 * rows, enc: v3EncRaw}
		off += int64(8 * rows)
	}
	for q := 0; q < dr.bools; q++ {
		*dr.boolBlock(g, q) = blockEntry{off: off, encLen: (rows + 7) / 8, enc: v3EncBitmap}
		off += int64((rows + 7) / 8)
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
