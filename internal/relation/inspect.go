package relation

import (
	"fmt"
	"math"
)

// ColumnLayout summarizes one column's physical layout across a v3
// file's block groups: which encodings the writer chose, how many
// payload bytes they cost versus the uncompressed column, and how
// useful the zone maps are for pruning.
type ColumnLayout struct {
	Name string
	Kind Kind

	// Blocks is the number of block groups (= blocks for this column).
	Blocks int

	// Encodings counts blocks per encoding name ("raw", "delta",
	// "dict", "bitmap", "rle", "for").
	Encodings map[string]int

	// EncodedBytes is the total on-disk payload for the column;
	// RawBytes is what an uncompressed layout would charge (8 bytes
	// per numeric value, one bit per Boolean rounded up per block).
	EncodedBytes int64
	RawBytes     int64

	// ZoneTightness is the mean block envelope width divided by the
	// column envelope width, in [0, 1]: 0 means every block is a
	// single point (perfectly clustered), 1 means every block spans
	// the whole column (shuffled — zone maps useless). For Boolean
	// columns it is the fraction of mixed true/false blocks.
	ZoneTightness float64

	// Prunability estimates the fraction of block groups a narrow
	// range predicate on this column skips: for numerics, the expected
	// skip rate of a point query drawn uniformly over the column
	// envelope (1 − ZoneTightness for non-overlapping zones); for
	// Booleans, the fraction of constant blocks, which prune for the
	// opposing predicate polarity.
	Prunability float64
}

// LayoutInspection is the physical-layout report for one v3 file —
// what `optdata inspect` prints. See DiskRelation.InspectLayout.
type LayoutInspection struct {
	Path      string
	Rows      int
	GroupRows int
	Groups    int
	Columns   []ColumnLayout
}

// v3EncodingName names a block encoding byte for reports.
func v3EncodingName(enc uint8) string {
	switch enc {
	case v3EncRaw:
		return "raw"
	case v3EncDelta:
		return "delta"
	case v3EncDict:
		return "dict"
	case v3EncBitmap:
		return "bitmap"
	case v3EncRLE:
		return "rle"
	case v3EncFOR:
		return "for"
	default:
		return fmt.Sprintf("enc%d", enc)
	}
}

// InspectLayout reads the block directory of a v3 file and reports the
// per-column encoding mix, compression ratio, and zone-map quality —
// the numbers that predict whether a predicated scan will prune.
// Requires the v3 format; v1/v2 files have no per-block directory to
// inspect.
func (dr *DiskRelation) InspectLayout() (*LayoutInspection, error) {
	if dr.version != DiskFormatV3 {
		return nil, fmt.Errorf("relation: %s: layout inspection requires the v3 format (file is v%d)", dr.path, dr.version)
	}
	groups := dr.numGroups
	insp := &LayoutInspection{
		Path:      dr.path,
		Rows:      dr.numRows,
		GroupRows: dr.groupRows,
		Groups:    groups,
		Columns:   make([]ColumnLayout, 0, len(dr.schema)),
	}
	for a, attr := range dr.schema {
		col := ColumnLayout{Name: attr.Name, Kind: attr.Kind, Blocks: groups, Encodings: map[string]int{}}
		// First pass: encoding mix, byte totals, and the column-wide
		// zone envelope (ignoring all-NaN blocks, whose inverted
		// min/max envelope matches nothing).
		colMin, colMax := math.Inf(1), math.Inf(-1)
		for g := 0; g < groups; g++ {
			gRows := dr.rowsInGroup(g)
			var blk *blockEntry
			if attr.Kind == Numeric {
				blk = dr.numBlock(g, dr.numPos[a])
				col.RawBytes += int64(8 * gRows)
			} else {
				blk = dr.boolBlock(g, dr.boolPos[a])
				col.RawBytes += int64((gRows + 7) / 8)
			}
			col.Encodings[v3EncodingName(blk.enc)]++
			col.EncodedBytes += int64(blk.encLen)
			if attr.Kind == Numeric && blk.min <= blk.max {
				colMin = math.Min(colMin, blk.min)
				colMax = math.Max(colMax, blk.max)
			}
		}
		// Second pass: zone-map quality.
		switch {
		case attr.Kind == Boolean:
			mixed := 0
			for g := 0; g < groups; g++ {
				if tc := dr.boolBlock(g, dr.boolPos[a]).trueCnt; tc > 0 && tc < dr.rowsInGroup(g) {
					mixed++
				}
			}
			col.ZoneTightness = float64(mixed) / float64(groups)
			col.Prunability = 1 - col.ZoneTightness
		case colMax > colMin:
			span := colMax - colMin
			sum := 0.0
			for g := 0; g < groups; g++ {
				blk := dr.numBlock(g, dr.numPos[a])
				if blk.min <= blk.max {
					sum += (blk.max - blk.min) / span
				}
				// All-NaN blocks contribute 0 width: they prune under
				// every range predicate.
			}
			col.ZoneTightness = sum / float64(groups)
			col.Prunability = 1 - col.ZoneTightness
		default:
			// Constant (or all-NaN) column: every block is a point, but
			// a matching predicate still reads everything — tight zones,
			// nothing to prune between groups.
			col.ZoneTightness = 0
			col.Prunability = 0
		}
		insp.Columns = append(insp.Columns, col)
	}
	return insp, nil
}
