package datagen

import (
	"fmt"
	"math/rand"

	"optrule/internal/relation"
)

// RowSource produces tuples for a fixed schema. Implementations must be
// deterministic given the rng stream, so that the same seed regenerates
// the same relation (tests and experiments depend on this).
type RowSource interface {
	// Schema returns the schema of produced tuples.
	Schema() relation.Schema
	// Row appends one tuple's numeric and Boolean values to the provided
	// buffers (which may be reused between calls) and returns them.
	Row(rng *rand.Rand, nums []float64, bools []bool) ([]float64, []bool)
}

// Materialize builds an in-memory relation of n tuples from src.
func Materialize(src RowSource, n int, seed int64) (*relation.MemoryRelation, error) {
	if n < 0 {
		return nil, fmt.Errorf("datagen: negative tuple count %d", n)
	}
	rel, err := relation.NewMemoryRelation(src.Schema())
	if err != nil {
		return nil, err
	}
	rel.Grow(n)
	rng := rand.New(rand.NewSource(seed))
	var nums []float64
	var bools []bool
	for i := 0; i < n; i++ {
		nums, bools = src.Row(rng, nums[:0], bools[:0])
		if err := rel.Append(nums, bools); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// MaterializeRange builds an in-memory relation holding rows
// [skip, skip+n) of the stream Materialize(src, skip+n, seed) would
// produce. Every generator draws from one sequential rng, so the
// first skip rows of a longer generation are bit-identical to a
// skip-row generation with the same seed — which makes the returned
// tail exactly the rows an append must add to a relation already
// holding the first skip rows of the same (kind, seed) stream.
func MaterializeRange(src RowSource, seed int64, skip, n int) (*relation.MemoryRelation, error) {
	if skip < 0 {
		return nil, fmt.Errorf("datagen: negative skip %d", skip)
	}
	if n < 0 {
		return nil, fmt.Errorf("datagen: negative tuple count %d", n)
	}
	rel, err := relation.NewMemoryRelation(src.Schema())
	if err != nil {
		return nil, err
	}
	rel.Grow(n)
	rng := rand.New(rand.NewSource(seed))
	var nums []float64
	var bools []bool
	for i := 0; i < skip+n; i++ {
		nums, bools = src.Row(rng, nums[:0], bools[:0])
		if i < skip {
			continue // burn the prefix; the rng stream is what matters
		}
		if err := rel.Append(nums, bools); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// MustMaterialize is Materialize that panics on error, for tests and
// examples.
func MustMaterialize(src RowSource, n int, seed int64) *relation.MemoryRelation {
	rel, err := Materialize(src, n, seed)
	if err != nil {
		panic(err)
	}
	return rel
}

// WriteDisk streams n tuples from src into the binary disk format at
// path, without holding the relation in memory — this is how the
// larger-than-memory experiment inputs are produced. It writes the
// current default format (v2 column-major block groups); use
// WriteDiskFormat to pick the version explicitly.
func WriteDisk(path string, src RowSource, n int, seed int64) error {
	return WriteDiskFormat(path, src, n, seed, relation.DiskFormatV2)
}

// WriteDiskFormat is WriteDisk with an explicit on-disk format version
// (relation.DiskFormatV1, DiskFormatV2, or DiskFormatV3).
func WriteDiskFormat(path string, src RowSource, n int, seed int64, version int) error {
	if n < 0 {
		return fmt.Errorf("datagen: negative tuple count %d", n)
	}
	dw, err := relation.NewDiskWriterFormat(path, src.Schema(), version)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var nums []float64
	var bools []bool
	for i := 0; i < n; i++ {
		nums, bools = src.Row(rng, nums[:0], bools[:0])
		if err := dw.Append(nums, bools); err != nil {
			dw.Discard()
			return err
		}
	}
	return dw.Close()
}

// WriteSharded streams n tuples from src into a sharded relation
// rooted at manifestPath, split contiguously across the given shard
// count with shard files in the given format version (0 selects v2).
// The tuple stream is identical to WriteDiskFormat with the same
// (src, n, seed), so a sharded relation and its single-file twin hold
// the same rows in the same global order — the property the sharded
// differential tests pin.
func WriteSharded(manifestPath string, src RowSource, n int, seed int64, shards, version int) error {
	if n < 0 {
		return fmt.Errorf("datagen: negative tuple count %d", n)
	}
	sw, err := relation.NewShardedWriter(manifestPath, src.Schema(), relation.ShardedWriterOptions{
		Shards: shards, TotalRows: n, Format: version,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var nums []float64
	var bools []bool
	for i := 0; i < n; i++ {
		nums, bools = src.Row(rng, nums[:0], bools[:0])
		if err := sw.Append(nums, bools); err != nil {
			sw.Discard()
			return err
		}
	}
	return sw.Close()
}
