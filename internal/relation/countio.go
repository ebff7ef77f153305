package relation

import (
	"io"
	"sync/atomic"
)

// This file is the one place in internal/relation where raw file reads
// happen. Everything else goes through these helpers, and the optlint
// bytecount analyzer enforces it: BytesRead is the deterministic cost
// model the planner and the paper's I/O accounting trust, so every
// read must make an explicit, reviewable choice about how it charges —
// payload now, payload at delivery, or metadata never.
//
// The charging rules, which the helpers' names encode:
//
//   - payload reads charge the counter the moment the data is
//     DELIVERED to the scan, so BytesRead is a pure function of the
//     plan and how far the scan ran. payloadReadFull charges itself
//     (streaming scans deliver immediately); uncountedReadAt leaves the
//     charge to the caller (block scans charge each window once all of
//     its bytes are read, point reads charge logical bytes once the
//     batch completes).
//   - metadata reads (headers, directories, magic sniffs) never
//     charge: BytesRead counts the payload bytes a scan pulls, and
//     open-time metadata would smear a constant over every scan of the
//     same relation.

// payloadReadFull reads exactly len(buf) payload bytes from r and
// charges them to counter. Nothing is charged on a short or failed
// read — the scan is about to abort and must not bill bytes it never
// delivered.
func payloadReadFull(r io.Reader, buf []byte, counter *atomic.Int64) (int, error) {
	n, err := io.ReadFull(r, buf)
	if err == nil {
		counter.Add(int64(n))
	}
	return n, err
}

// metaReadFull reads exactly len(buf) metadata bytes from r without
// charging any counter.
func metaReadFull(r io.Reader, buf []byte) (int, error) {
	return io.ReadFull(r, buf)
}

// metaReadAt reads len(buf) metadata bytes at off without charging any
// counter.
func metaReadAt(f io.ReaderAt, buf []byte, off int64) (int, error) {
	return f.ReadAt(buf, off)
}

// uncountedReadAt reads len(buf) payload bytes at off; the CALLER owns
// the charge and must add the delivered bytes to the relation's
// counter when (and only when) the data reaches the scan.
func uncountedReadAt(f io.ReaderAt, buf []byte, off int64) (int, error) {
	return f.ReadAt(buf, off)
}

// sniffPrefix reads up to len(buf) bytes from the start of r for magic
// detection, returning however many were there. Metadata: uncharged.
func sniffPrefix(r io.Reader, buf []byte) int {
	n, _ := io.ReadFull(r, buf)
	return n
}
