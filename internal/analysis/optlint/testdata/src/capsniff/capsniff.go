// Testdata for the capsniff analyzer: type assertions and switches on
// the interfaces of internal/relation.
package capsniff

import (
	"io"

	"optrule/internal/relation"
)

func sniffRanges(rel relation.Relation) bool {
	_, ok := rel.(relation.RangeScanner) // want `type assertion on relation.Relation sniffs a capability`
	return ok
}

func sniffPoints(v any) bool {
	_, ok := v.(relation.NumericPointReader) // want `type assertion on relation.NumericPointReader sniffs a capability`
	return ok
}

func sniffSwitch(v any) int {
	switch v.(type) {
	case relation.BlockCostModel: // want `type assertion on relation.BlockCostModel sniffs a capability`
		return 1
	case io.Closer: // not a relation interface
		return 2
	}
	return 0
}

// describe switches on concrete backends, as optdata's describeData
// does: no capability is asked for.
func describe(rel relation.Relation) string {
	switch r := rel.(type) {
	case *relation.DiskRelation:
		return r.StoragePaths()[0]
	case *relation.ShardedRelation:
		return r.ManifestPath()
	}
	return "memory"
}

func accounting(rel relation.Relation) int64 {
	if br, ok := rel.(interface{ BytesRead() int64 }); ok { // an anonymous interface is not declared in relation
		return br.BytesRead()
	}
	return 0
}

func waived(rel relation.Relation) bool {
	//optlint:ignore capsniff demo: a reasoned exception
	_, ok := rel.(relation.ScanAligner)
	return ok
}
