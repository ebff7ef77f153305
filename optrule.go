// Package optrule mines optimized association rules for numeric
// attributes, reproducing Fukuda, Morimoto, Morishita and Tokuyama,
// "Mining Optimized Association Rules for Numeric Attributes"
// (PODS 1996; JCSS 58(1), 1999).
//
// Given a relation with numeric and Boolean attributes, the library
// discovers rules of the form
//
//	(Balance ∈ [v1, v2]) ⇒ (CardLoan = yes)
//
// where the range [v1, v2] is computed, not enumerated: the
// optimized-support rule maximizes the number of tuples in the range
// subject to a minimum confidence, and the optimized-confidence rule
// maximizes confidence subject to a minimum support. Both are found in
// time linear in the number of buckets using the paper's convex-hull
// and effective-index algorithms, after an out-of-core-friendly
// randomized equi-depth bucketing pass that never sorts the database.
//
// # Two-pass architecture
//
// The paper's premise is that the database is far larger than main
// memory, making sequential scans the currency of performance. MineAll
// therefore reads the relation exactly TWICE, no matter how many
// numeric attributes it has: a fused sampling scan draws every
// attribute's Algorithm 3.1 sample and builds all bucket boundaries in
// one pass, a fused counting scan tallies per-bucket statistics for
// every (numeric, Boolean) attribute combination in a second pass, and
// the Section 4 rule optimizations then run on the in-memory counts
// across a worker pool. Targeted queries (Mine, MineConjunctive,
// MineTopK, …) instead scan only the columns they touch.
//
// The two-dimensional layer (§1.4) follows the same discipline.
// MineAll2D mines rectangle, x-monotone, and rectilinear-convex rules
// for EVERY requested attribute pair in exactly two relation scans:
// the fused sampling scan builds per-attribute grid boundaries, and
// one fused counting scan locates each tuple's bucket once per
// attribute and fills all d(d−1)/2 pair grids simultaneously —
// segmented across workers at storage-block-aligned boundaries, with
// exact (integer-count) grid merging. The O(side³) rectangle sweep and
// the region DPs then run on parallel in-memory kernels that are
// pinned rule-for-rule identical to the serial reference kernels.
// Mine2D, MineXMonotone, and MineRectilinearConvex are single-pair
// conveniences on the same engine.
//
// # Storage formats
//
// Disk relations come in three binary formats, negotiated
// automatically by OpenDisk:
//
//   - v1 (NewDiskWriter) is row-major: fixed-width tuples, one after
//     another. Simple and append-cheap, but every scan reads all 8·d
//     bytes of each tuple even when it needs one column.
//   - v2 (NewDiskWriterV2, the default for new data) is column-major:
//     tuples are grouped into block groups (64Ki rows by default) and
//     each column is stored contiguously within a group, so a scan
//     selecting k of d attributes reads ~k/d of the bytes. Scans run an
//     overlapped read-ahead pipeline — a prefetcher goroutine reads
//     block group N+1's column blocks while the caller decodes and
//     counts group N — with double-buffered pooled buffers, so memory
//     stays bounded regardless of relation size. Parallel counting
//     aligns its segment boundaries to block groups, and the sampling
//     pass stops at the last sorted sample index instead of reading the
//     tail.
//   - v3 (NewDiskWriterV3) keeps the v2 block-group layout but
//     compresses each column block independently — delta-from-minimum
//     bit packing for integer-valued numerics, a dictionary for
//     low-cardinality columns, bitmaps for Booleans, raw as the
//     fallback — and records a per-block zone map (numeric min/max,
//     Boolean true count) in the group directory. Scans pay only the
//     compressed bytes, and predicated scans consult the zone maps to
//     skip whole block groups whose blocks provably contain no
//     matching row: a filtered counting pass over a clustered
//     condition column reads a fraction of the relation without
//     decoding the skipped groups at all.
//
// Existing v1 and v2 files stay fully readable; convert between
// formats with ConvertDisk (or `optdata convert -in old.opr -out
// new.opr -format v3`) to change a file's scan cost profile. Both
// targeted queries and MineAll's sampling pass benefit from the
// selective column reads of v2 and v3; the differential tests pin that
// all formats yield rule-for-rule identical mining output. v2 remains
// the default for new data — prefer v3 when columns compress well
// (integer-valued or low-cardinality) or when workloads filter on
// clustered conditions.
//
// # Clustering & prunable layouts
//
// Zone maps only prune what the physical row order lets them prove:
// on a shuffled file every block group's min/max spans the whole value
// range and nothing is refutable, no matter how selective the filter.
// The write path can manufacture the prunable layout instead of hoping
// for it. DiskWriter.ClusterBy(attr) reorders the tuple stream by the
// chosen column before the v3 blocks are cut (a stable sort, NaNs
// last), and ConvertDiskClustered / `optdata convert -format v3
// -cluster <attr>` re-cluster an existing file. Clustering pays three
// times over:
//
//   - zone maps go from overlapping to partitioning, so a filter or
//     range predicate on the cluster column refutes every out-of-band
//     block group — the filtered scan reads the surviving bytes, not
//     the relation;
//   - sorted runs are what the v3 run-length (RLE) and
//     frame-of-reference (FOR) block encodings feed on, so the file
//     itself shrinks — every block still picks its cheapest encoding
//     (raw/delta/dict/bitmap/RLE/FOR) independently;
//   - parallel pruned scans stop inheriting the skipped work: the
//     zone-map-aware scheduler (PlanScanChunks) prices block-group
//     chunks from the directory — a provably-pruned chunk costs ~0 and
//     is settled without issuing a scan at all — and workers claim
//     chunks dynamically, so the surviving band spreads across workers
//     instead of stranding on whichever static segment covers it.
//     Partials fold in fixed chunk order, keeping every integer
//     statistic bit-identical across worker counts and steal orders.
//
// Choose the cluster column with `optdata inspect`, which reports each
// column's encoding mix, zone-map tightness, and estimated
// prunability. One caveat: the sampling pass consumes rows in storage
// order, so clustering changes sampled bucket boundaries (rules stay
// statistically equivalent); under exact domains
// (Config.ExactDomainLimit) boundaries depend only on the value set
// and mined rules are bit-identical across row orders — the
// differential tests pin this.
//
// # Sharded relations
//
// Above a single file sits the sharded backend: one LOGICAL relation
// backed by an ordered list of shard files (each a self-contained v1
// or v2 relation file, freely mixed) plus a small versioned manifest
// (conventionally *.oprs) listing them. The global row order is the
// concatenation of the shards in manifest order, so a sharded relation
// holding the same tuple stream as a single file mines rule-for-rule
// identically — the differential tests pin this, along with the
// exactly-two-scans cost of MineAll across shards.
//
// Sharding is the horizontal decomposition that breaks the
// single-file / single-spindle ceiling:
//
//   - each shard can live on its own disk, and
//     ShardedRelation.SetConcurrentScans(n) runs up to n shard
//     sub-scans at once — each with its own double-buffered read-ahead
//     pipeline — while still delivering tuples in global row order;
//   - the parallel counting engines (Config.PEs, MineAll2D) plan their
//     segments across shard boundaries: AlignedSegments snaps cuts to
//     shard and per-shard block-group boundaries, so workers never
//     split a shard's block group and never contend for one file;
//   - per-shard state (group directories, prefetch buffers, point-read
//     mappings) stays bounded no matter how large the logical relation
//     grows — the same decomposition that later extends to multi-node
//     scans.
//
// Create sharded relations with NewShardedWriter (splitting an append
// stream every RowsPerShard rows, or into a target shard count),
// `optdata -shards N`, or ConvertToSharded over an existing relation;
// open them with OpenSharded, or OpenData to sniff either backend from
// a path. When to shard: a relation that fits comfortably on one disk
// and mines in one scan pipeline gains nothing from sharding — prefer
// a single v2 file. Shard when the relation outgrows one device (or
// one file-size/backup boundary), when shards can sit on independent
// disks so concurrent sub-scans multiply sequential bandwidth, or
// when data arrives in natural batches (per day, per region) that
// should remain individually replaceable. Keep shards large — many
// block groups each, i.e. tens of MB at least — so per-shard pipeline
// startup stays negligible; choose the shard count from the hardware
// (≈ one shard, or a few, per independent disk), not from CPU count,
// which Config.PEs and Workers already cover.
//
// # Plan/execute sessions
//
// The miner runs on a plan→execute architecture. The paper's bucketed
// counts are SUFFICIENT STATISTICS: once an attribute's (or attribute
// pair's) count grid exists, the optimized rule for any threshold,
// rule kind, or region class derives from the grid alone, without
// touching the relation again. The engine therefore splits every query
// into a data plane and a query plane:
//
//  1. PLAN — each query is resolved into the statistics it needs:
//     per-attribute bucket boundaries, 1-D per-bucket count groups
//     (keyed by attribute, resolution, and presumptive conditions),
//     and 2-D pair grids. A batch's needs are deduplicated: ten
//     queries touching the same attribute plan one statistic.
//  2. EXECUTE — the statistics missing from the session cache are
//     materialized in at most TWO relation scans regardless of batch
//     size or mix: one fused sampling scan builds every missing
//     boundary set, one fused counting scan fills every missing count
//     group and pair grid (segmented across processing elements on
//     range-scanning storage). Every batch, same-shape or mixed, runs
//     on one batch-vectorized counting kernel — per-batch columnar
//     passes over precomputed effective-bucket arrays instead of
//     per-tuple branching — pinned bit-identical to its per-tuple
//     reference. When every group in
//     the batch shares one conjunctive filter, the filter is pushed
//     into the storage layer, where v3 zone maps skip whole block
//     groups that provably contain no matching row.
//  3. EXTRACT — the Section 4 / §1.4 optimization kernels run per
//     query on the in-memory statistics, fanned out over a worker
//     pool. Pure CPU; no I/O.
//
// NewSession is the long-lived entry point for serving mining traffic:
//
//	s, err := optrule.NewSession(rel, optrule.Config{MinConfidence: 0.6})
//	answers, err := s.ExecuteBatch([]optrule.Query{
//		{Op: optrule.OpRules},                               // all 1-D rules
//		{Op: optrule.OpRules2D, Objective: "CardLoan"},      // all 2-D pairs
//		{Op: optrule.OpTopK, Numeric: "Balance", Objective: "CardLoan", K: 3},
//	})
//
// That whole heterogeneous batch costs exactly two scans. The session
// holds an LRU-bounded, size-accounted statistics cache keyed by
// (attributes, resolution, conditions): a re-query with different
// thresholds, rule kinds, or region classes — the knobs an analyst
// actually turns — is answered with ZERO scans, because thresholds
// live in the query plane. Sessions are safe for concurrent callers,
// so one session can back a serving layer; Session.CacheStats exposes
// occupancy, hit rates, and delta-merge telemetry, and SetCacheLimit
// rebounds the budget.
//
// The relation may GROW under a live session. Because the cached
// statistics are per-bucket counts, an append of Δ rows does not
// invalidate them — it extends them: Session.Append (in-memory
// relations), Session.RefreshFromStorage (sharded relations grown by
// AppendToSharded / `optdata append`), and Session.Refresh (anything
// else that grew in place) run ONE counting scan over just the
// appended tail and fold the partial statistics into every cached
// entry. The fold is integer-exact — counts, grids, and extremes
// merge in fixed order; order-sensitive float sums (the average
// operator's target sums) are stripped and recounted on next demand —
// so a refreshed session answers bit-identically to a cold rebuild
// over the grown relation with the same boundaries. Ingest is O(Δ),
// not O(n): the `optbench -exp append` experiment hard-fails if a 1%
// append costs more than 5% of a cold rebuild's counted bytes.
// Bucket boundaries are reused until the accumulated appended
// fraction exceeds the §3.4 bucket-error budget (≈0.5/√SampleFactor);
// past it the refresh re-samples the affected attributes over the
// full relation, exactly as a cold session would. Each refresh
// advances an internal cache generation, so batches racing an append
// never mix statistics from different relation snapshots.
// InvalidateCache remains for the one case appends cannot absorb: a
// relation REWRITTEN in place (rows changed or removed), where every
// cached statistic is stale and must be dropped.
//
// The one-shot functions below (MineAll, Mine, MineTopK, …) are thin
// wrappers over a throwaway session and remain rule-for-rule identical
// to their pre-session behavior (differential tests pin this across
// all storage backends).
//
// # Fault tolerance & scatter-gather execution
//
// Counting is where a mining batch spends its I/O, and one executor
// runs every counting scan — batch, delta refresh, serial or parallel.
// It splits the rows into chunks, tallies each chunk privately and
// merges the partials in chunk order. Config.Scatter sets its recovery
// policy: with Config.Scatter.Workers > 0 the chunks are cut at shard
// boundaries (storage-aligned segments on single-file relations) and
// each is dispatched as one task to a pool of Workers. The merge is
// EXACT — a scattered schedule carries only integer counts and
// extremes, never order-sensitive float sums (the average operator's
// target sums always count serially) — so the mined rules are
// bit-identical at every worker count, under every placement, and after
// every recovery action. The zero value of Config.Scatter counts the
// chunks in-process, one attempt each, with no fallback.
//
// Failures escalate through three layers, and a batch completes
// whenever the underlying files are readable:
//
//  1. RETRY — a failed or timed-out task attempt is retried with capped
//     exponential backoff, re-routed away from the worker that just
//     failed it. A stalled worker is abandoned at TaskTimeout and its
//     partial is discarded, never merged.
//  2. FALLBACK — a task that exhausts MaxAttempts is counted by the
//     coordinator itself, directly against the relation.
//  3. SURFACE — if even the direct scan fails, the error is scoped to
//     the QUERIES it starved, not the process: every resolved query in
//     the batch gets the storage error in its Answer.Err and
//     ExecuteBatch itself returns nil error. Context cancellation, by
//     contrast, is a caller decision and fails the whole batch
//     (ExecuteBatchContext). ScatterStats exposes the recovery
//     counters.
//
// The machinery is testable because faults are injectable: FaultRelation
// wraps any backend with a deterministic, seed-driven fault plan
// (FaultConfig) — scans that die before the first batch or at a chosen
// row, artificially short batches, stalls, Close errors — all injected
// at the consumer boundary so both the caller's error path and the
// backend's mid-scan teardown (prefetchers, concurrent shard sub-scans)
// are exercised. Every injected error wraps ErrInjected. The fault
// matrix tests drive every failure mode across every storage backend
// and worker count and require bit-identical rules; see examples/faults
// for a walkthrough. Relatedly, closing a disk or sharded relation
// while a scan or point read is in flight returns ErrBusy instead of
// racing the reader — Close only ever releases quiescent resources.
//
// # Enforced invariants
//
// The contracts above are not guarded by differential tests alone —
// they are mechanically enforced at the source level by optlint
// (cmd/optlint), a dependency-free go/analysis-style suite
// (internal/analysis/optlint) that CI runs over the whole module and
// fails on any finding. Each analyzer guards one invariant:
//
//   - maporder — a map range whose body appends to a slice, builds a
//     string, or writes output must sort afterwards: Go randomizes
//     map iteration, and leaked iteration order is exactly the bug
//     class the bit-identity suites exist to catch.
//   - nondet — kernel and merge packages may not read the wall clock
//     (time.Now, time.Since) or the globally seeded math/rand
//     generator; all randomness derives from the plan seed, so a run
//     is reproducible from its inputs.
//   - floatmerge — functions reachable from a parallel merge entry
//     point may not accumulate floats with +=: float addition is
//     order-dependent, so merged tallies stay integer-exact and
//     float target sums take the serial path.
//   - bytecount — raw file reads in internal/relation live only in
//     countio.go, whose helpers charge Stats.BytesRead; every other
//     read goes through them, keeping the cost model honest.
//   - atomicwrite — writers stage into an os.CreateTemp file beside
//     the destination and os.Rename it over on success, so a crash
//     mid-write can never truncate or clobber a durable file.
//   - closecheck — Close errors on write handles must be checked:
//     delayed write errors surface at Close, and dropping them can
//     commit a truncated file while reporting success.
//
// Run the suite locally, standalone or as a vet tool:
//
//	go run ./cmd/optlint ./...
//	go build -o /tmp/optlint ./cmd/optlint && go vet -vettool=/tmp/optlint ./...
//
// An intended exception is waived, on the offending line or the line
// above, with
//
//	//optlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory (a directive without one fails the build),
// and a directive that no longer suppresses anything is itself a
// finding — every waiver documents why the invariant does not apply,
// and stale waivers cannot rot into holes.
//
// # Quick start
//
//	rel, err := optrule.ReadCSVFile("customers.csv")
//	if err != nil { ... }
//	res, err := optrule.MineAll(rel, optrule.Config{
//		MinSupport:    0.10,
//		MinConfidence: 0.60,
//	})
//	for _, rule := range res.Rules {
//		fmt.Println(rule)
//	}
//
// Targeted queries mine a single attribute pair, optionally under a
// conjunctive condition (the generalized rules of the paper's §4.3):
//
//	sup, conf, err := optrule.Mine(rel, "Balance", "CardLoan", true,
//		[]optrule.Condition{{Attr: "AutoWithdraw", Value: true}},
//		optrule.Config{})
//
// Section 5's decision-support queries — "which range of checking
// balances maximizes the average savings balance?" — are available as
// MaxAverageRange and MaxSupportRange.
package optrule

import (
	"io"
	"os"

	"optrule/internal/datagen"
	"optrule/internal/miner"
	"optrule/internal/relation"
)

// Kind is the type of an attribute (Numeric or Boolean).
type Kind = relation.Kind

// Attribute kinds.
const (
	Numeric = relation.Numeric
	Boolean = relation.Boolean
)

// Attribute describes one column of a relation.
type Attribute = relation.Attribute

// Schema is an ordered list of attributes.
type Schema = relation.Schema

// Relation is a read-only table supporting streaming scans. Both the
// in-memory and the disk-backed implementations satisfy it.
type Relation = relation.Relation

// ColumnSet selects which attributes a Relation.Scan decodes, by
// global attribute index.
type ColumnSet = relation.ColumnSet

// Batch is one scan's unit of delivery: parallel column slices of Len
// rows. Callbacks must not retain a batch's slices.
type Batch = relation.Batch

// MemoryRelation is the columnar in-memory relation; build one with
// NewMemoryRelation and Append, or load one from CSV.
type MemoryRelation = relation.MemoryRelation

// DiskRelation is the disk-backed relation for data sets larger than
// main memory; open one with OpenDisk.
type DiskRelation = relation.DiskRelation

// DiskWriter streams tuples into the binary on-disk format (any
// version; see NewDiskWriter, NewDiskWriterV2, and NewDiskWriterV3).
type DiskWriter = relation.DiskWriter

// On-disk format versions (see the package documentation's Storage
// formats section).
const (
	// DiskFormatV1 is the row-major format.
	DiskFormatV1 = relation.DiskFormatV1
	// DiskFormatV2 is the column-major block-group format.
	DiskFormatV2 = relation.DiskFormatV2
	// DiskFormatV3 is the compressed block-group format with zone maps.
	DiskFormatV3 = relation.DiskFormatV3
)

// Rule is one mined optimized association rule.
type Rule = miner.Rule

// RuleKind distinguishes optimized-support from optimized-confidence
// rules.
type RuleKind = miner.RuleKind

// Rule kinds.
const (
	OptimizedSupport    = miner.OptimizedSupport
	OptimizedConfidence = miner.OptimizedConfidence
	OptimizedGain       = miner.OptimizedGain
)

// Config controls mining; the zero value uses sensible defaults
// (MinSupport 0.05, MinConfidence 0.5, 1000 buckets, sample factor 40).
type Config = miner.Config

// Condition is a primitive Boolean condition used as a presumptive
// conjunct in generalized rules.
type Condition = miner.Condition

// Result is the output of MineAll.
type Result = miner.Result

// AvgRange is an optimized range for the average operator (Section 5).
type AvgRange = miner.AvgRange

// NewMemoryRelation creates an empty in-memory relation with the given
// schema.
func NewMemoryRelation(schema Schema) (*MemoryRelation, error) {
	return relation.NewMemoryRelation(schema)
}

// ReadCSV parses a headered CSV stream into a relation using schema;
// CSV columns may appear in any order and extra columns are ignored.
func ReadCSV(r io.Reader, schema Schema) (*MemoryRelation, error) {
	return relation.ReadCSV(r, schema)
}

// ReadCSVAuto parses a headered CSV stream, inferring each column's
// kind from the first data row (floats are Numeric; yes/no/true/false
// are Boolean).
func ReadCSVAuto(r io.Reader) (*MemoryRelation, error) {
	return relation.ReadCSVAutoSchema(r)
}

// ReadCSVFile is ReadCSVAuto over a file path.
func ReadCSVFile(path string) (*MemoryRelation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadCSVAutoSchema(f)
}

// WriteCSV writes a relation with a header row; Boolean values are
// encoded as yes/no.
func WriteCSV(w io.Writer, rel Relation) error {
	return relation.WriteCSV(w, rel)
}

// OpenDisk opens a binary relation file written by NewDiskWriter or
// NewDiskWriterV2, negotiating the format version from the header.
// Scans stream through fixed-size buffers, so relations far larger
// than main memory can be mined.
func OpenDisk(path string) (*DiskRelation, error) {
	return relation.OpenDisk(path)
}

// NewDiskWriter creates a v1 (row-major) binary relation file at path.
// Prefer NewDiskWriterV2 for new data: its column-major layout makes
// selective scans proportionally cheaper.
func NewDiskWriter(path string, schema Schema) (*DiskWriter, error) {
	return relation.NewDiskWriter(path, schema)
}

// NewDiskWriterV2 creates a v2 (column-major block-group) binary
// relation file at path. groupRows is the block-group size; 0 selects
// the default (64Ki rows).
func NewDiskWriterV2(path string, schema Schema, groupRows int) (*DiskWriter, error) {
	return relation.NewDiskWriterV2(path, schema, groupRows)
}

// NewDiskWriterV3 creates a v3 (compressed block-group) binary
// relation file at path: per-block compression plus min/max zone maps
// that let predicated scans skip whole block groups. groupRows is the
// block-group size; 0 selects the default (64Ki rows).
func NewDiskWriterV3(path string, schema Schema, groupRows int) (*DiskWriter, error) {
	return relation.NewDiskWriterV3(path, schema, groupRows)
}

// ConvertDisk rewrites the relation file at src into the given format
// version (DiskFormatV1, DiskFormatV2, or DiskFormatV3) at dst, streaming batch by
// batch so relations larger than memory convert in bounded space. It
// is failure-safe: output goes to a temp file renamed over dst only on
// success, so a failed conversion never leaves a truncated dst behind.
func ConvertDisk(src, dst string, version int) error {
	return relation.ConvertDisk(src, dst, version)
}

// ConvertDiskClustered is ConvertDisk with a write-path reorder: the
// tuples are rewritten clustered by the attribute at index clusterAttr
// (stable sort, NaNs last), which is what makes v3 zone maps partition
// the value space and RLE/FOR encodings find their runs. See the
// package documentation's Clustering & prunable layouts section.
func ConvertDiskClustered(src, dst string, version, clusterAttr int) error {
	rel, err := relation.OpenDisk(src)
	if err != nil {
		return err
	}
	defer rel.Close()
	return relation.ConvertFileClustered(rel, dst, version, clusterAttr)
}

// ShardedRelation is the disk-backed relation spanning many shard
// files behind one manifest; open one with OpenSharded. See the
// package documentation's Sharded relations section.
type ShardedRelation = relation.ShardedRelation

// ShardedWriter streams tuples into a sharded relation; create one
// with NewShardedWriter.
type ShardedWriter = relation.ShardedWriter

// ShardedWriterOptions configures NewShardedWriter: the splitting
// policy (RowsPerShard, or Shards+TotalRows), shard file format, and
// v2 block-group size.
type ShardedWriterOptions = relation.ShardedWriterOptions

// DataRelation is the storage surface shared by DiskRelation and
// ShardedRelation: range scans, point reads, alignment hints, counted
// BytesRead, Close.
type DataRelation = relation.DataRelation

// OpenSharded opens a sharded relation from its manifest file, opening
// and cross-checking every shard before any row is served.
func OpenSharded(manifestPath string) (*ShardedRelation, error) {
	return relation.OpenSharded(manifestPath)
}

// OpenData opens either disk backend at path by sniffing the file's
// magic: shard manifests open as ShardedRelation, relation files as
// DiskRelation.
func OpenData(path string) (DataRelation, error) {
	return relation.OpenData(path)
}

// NewShardedWriter creates a sharded relation rooted at manifestPath
// (conventionally *.oprs); shard files are written next to it and the
// manifest itself is committed atomically on Close.
func NewShardedWriter(manifestPath string, schema Schema, opts ShardedWriterOptions) (*ShardedWriter, error) {
	return relation.NewShardedWriter(manifestPath, schema, opts)
}

// ConvertToSharded streams an open relation into a sharded relation at
// manifestPath with the given shard count and shard format version
// (0 selects v2), cleaning up everything it created on error.
func ConvertToSharded(src Relation, manifestPath string, shards, version int) error {
	return relation.ConvertToSharded(src, manifestPath, shards, version)
}

// Session is a long-lived mining handle over one relation: queries
// planned together share scans, and an LRU-bounded statistics cache
// answers repeat queries with zero scans. See the package
// documentation's Plan/execute sessions section. Safe for concurrent
// use.
type Session = miner.Session

// Query is one mining request in the session IR; the zero value of
// every optional field selects the session default.
type Query = miner.Query

// Answer is one query's result; exactly one result group is populated,
// matching the query's op.
type Answer = miner.Answer

// CacheStats reports a session cache's occupancy and traffic.
type CacheStats = miner.CacheStats

// Query operations.
const (
	// OpRules mines 1-D optimized rules; empty Numeric/Objective mean
	// "all" (the MineAll workload).
	OpRules = miner.OpRules
	// OpConjunctive mines the §4.3 conjunctive rule form.
	OpConjunctive = miner.OpConjunctive
	// OpTopK mines up to K disjoint ranked ranges.
	OpTopK = miner.OpTopK
	// OpAverage / OpSupportRange are the Section 5 average-operator
	// queries.
	OpAverage      = miner.OpAverage
	OpSupportRange = miner.OpSupportRange
	// OpRules2D mines rectangle kinds and region classes over pairs.
	OpRules2D = miner.OpRules2D
)

// NewSession validates cfg and creates a session over rel. The
// relation may grow while the session is open — Session.Append,
// Session.Refresh, and Session.RefreshFromStorage fold appended rows
// into the cached statistics in O(Δ) — but existing rows must not
// change (call Session.InvalidateCache after rewriting the relation
// in place).
func NewSession(rel Relation, cfg Config) (*Session, error) {
	return miner.NewSession(rel, cfg)
}

// DeltaStats reports what one session refresh did with appended rows:
// tail rows scanned, cache entries folded, boundary sets re-sampled
// past the bucket-error budget, and whether the cache had to be
// invalidated outright.
type DeltaStats = miner.DeltaStats

// AppendOptions configures AppendToSharded: the format version and
// rows-per-shard split of the new shard files.
type AppendOptions = relation.AppendOptions

// AppendToSharded appends every row of src to the sharded relation at
// manifestPath: new rows land in fresh shard files and the manifest is
// committed by temp+rename, so concurrent readers see either the old
// relation or the whole grown one, never a torn state. Open handles
// keep their snapshot until ShardedRelation.Reopen (or a session's
// RefreshFromStorage) picks up the growth. A schema mismatch is
// refused before any file is touched.
func AppendToSharded(manifestPath string, src Relation, opts AppendOptions) (int, error) {
	return relation.AppendToSharded(manifestPath, src, opts)
}

// ScatterConfig sets the counting executor's recovery policy
// (Config.Scatter): a worker pool with retries, re-routing and a
// direct-scan fallback. The zero value counts chunks in-process, one
// attempt each. See the package documentation's Fault tolerance
// section.
type ScatterConfig = miner.ScatterConfig

// ScatterStats carries the scatter coordinator's recovery counters
// (tasks, retries, timeouts, fallbacks), written atomically.
type ScatterStats = miner.ScatterStats

// Worker executes scatter-gather counting tasks; the in-process
// implementation is NewLocalWorker, and ScatterConfig.NewWorker
// injects alternatives (including faulty ones, for testing).
type Worker = miner.Worker

// NewLocalWorker returns the in-process scatter-gather worker over
// rel. ref selects the reference per-tuple counting kernel.
func NewLocalWorker(rel Relation, ref bool) Worker {
	return miner.NewLocalWorker(rel, ref)
}

// FaultRelation wraps any relation with deterministic, seed-driven
// storage fault injection — the harness behind the fault-matrix tests.
type FaultRelation = relation.FaultRelation

// FaultConfig selects which scans fail and how (see FaultRelation).
type FaultConfig = relation.FaultConfig

// NewFaultRelation wraps rel with the given fault plan.
func NewFaultRelation(rel Relation, cfg FaultConfig) *FaultRelation {
	return relation.NewFaultRelation(rel, cfg)
}

// ErrInjected is the sentinel wrapped by every fault the harness
// injects; test for it with errors.Is.
var ErrInjected = relation.ErrInjected

// ErrBusy is returned by DiskRelation.Close and ShardedRelation.Close
// while scans or point reads are in flight: Close releases nothing and
// the readers finish unharmed.
var ErrBusy = relation.ErrBusy

// MineAll mines both optimized rules for every (numeric, Boolean)
// attribute combination of the relation, sorted by descending lift.
func MineAll(rel Relation, cfg Config) (*Result, error) {
	return miner.MineAll(rel, cfg)
}

// Mine computes the optimized-support and optimized-confidence rules
// for one numeric attribute and one Boolean objective
// (objective = value), optionally under a conjunction of presumptive
// Boolean conditions. Either returned rule may be nil when no range
// meets the corresponding threshold.
func Mine(rel Relation, numeric, objective string, value bool, conds []Condition, cfg Config) (supportRule, confidenceRule *Rule, err error) {
	return miner.Mine(rel, numeric, objective, value, conds, cfg)
}

// MineConjunctive mines the fully general §4.3 rule form
// (A ∈ [v1, v2]) ∧ C1 ⇒ C2 where both the presumptive condition C1
// (conditions) and the objective C2 (objectives) are conjunctions of
// primitive Boolean conditions.
func MineConjunctive(rel Relation, numeric string, objectives, conditions []Condition,
	cfg Config) (supportRule, confidenceRule *Rule, err error) {
	return miner.MineConjunctive(rel, numeric, objectives, conditions, cfg)
}

// Rule2D is a mined two-dimensional optimized rule over a rectangle of
// two numeric attributes (the paper's §1.4 extension).
type Rule2D = miner.Rule2D

// Mine2D mines the optimized rectangle rule of the given kind over two
// numeric attributes: ((A1, A2) ∈ X) ⇒ C with X an axis-parallel
// rectangle, e.g. (Age, Balance) ∈ X ⇒ (CardLoan=yes). gridSide buckets
// per axis (0 = default 64). Returns nil when no rectangle meets the
// kind's threshold.
func Mine2D(rel Relation, numericA, numericB, objective string, value bool,
	kind RuleKind, gridSide int, cfg Config) (*Rule2D, error) {
	return miner.Mine2D(rel, numericA, numericB, objective, value, kind, gridSide, cfg)
}

// Options2D selects what MineAll2D mines: the numeric attributes to
// pair up, the Boolean objective, the rectangle-rule kinds, optional
// non-rectangular region classes, and the per-axis grid side.
type Options2D = miner.Options2D

// Result2D is the output of MineAll2D: rectangle rules sorted by lift
// and region rules sorted by gain.
type Result2D = miner.Result2D

// RegionClass selects a §1.4 region family for 2-D region mining.
type RegionClass = miner.RegionClass

// Region classes for Options2D.Regions.
const (
	XMonotoneClass         = miner.XMonotoneClass
	RectilinearConvexClass = miner.RectilinearConvexClass
)

// MineAll2D mines 2-D optimized rules for every unordered pair of the
// requested numeric attributes in exactly two relation scans: one
// fused sampling scan building every attribute's grid boundaries and
// one fused counting scan filling all pair grids simultaneously, with
// the parallel region kernels running on the in-memory grids. Output
// is rule-for-rule identical to mining each pair independently.
func MineAll2D(rel Relation, opt Options2D, cfg Config) (*Result2D, error) {
	return miner.MineAll2D(rel, opt, cfg)
}

// RegionRule is a mined x-monotone region rule: a connected region of
// the (A, B) plane whose intersection with every B-slice is a single
// A-interval, so it can follow diagonal trends a rectangle cannot.
type RegionRule = miner.RegionRule

// RegionBand is one column slice of a RegionRule.
type RegionBand = miner.RegionBand

// MineXMonotone mines the x-monotone region maximizing the gain
// Σ(v − MinConfidence·u) over two numeric attributes — the most general
// region class of the paper's §1.4. Returns nil when no region achieves
// positive gain.
func MineXMonotone(rel Relation, numericA, numericB, objective string, value bool,
	gridSide int, cfg Config) (*RegionRule, error) {
	return miner.MineXMonotone(rel, numericA, numericB, objective, value, gridSide, cfg)
}

// MineRectilinearConvex mines the gain-optimal rectilinear-convex
// region (connected; every row and column intersection is one interval)
// — the middle region class of the paper's §1.4, the right shape for
// 2-D clusters. Returns nil when no region achieves positive gain.
func MineRectilinearConvex(rel Relation, numericA, numericB, objective string, value bool,
	gridSide int, cfg Config) (*RegionRule, error) {
	return miner.MineRectilinearConvex(rel, numericA, numericB, objective, value, gridSide, cfg)
}

// MineTopK mines up to k pairwise-disjoint optimized ranges for one
// (numeric, Boolean) attribute pair, ranked best first: the clusters a
// campaign planner works through after the single optimal range. kind
// selects the optimization (OptimizedConfidence or OptimizedSupport).
func MineTopK(rel Relation, numeric, objective string, value bool, kind RuleKind, k int, cfg Config) ([]Rule, error) {
	return miner.MineTopK(rel, numeric, objective, value, kind, k, cfg)
}

// MaxAverageRange finds the range of the driver attribute maximizing
// the average of the target attribute among ranges with support at
// least minSupport (Definition 5.2).
func MaxAverageRange(rel Relation, driver, target string, minSupport float64, cfg Config) (AvgRange, error) {
	return miner.MaxAverageRange(rel, driver, target, minSupport, cfg)
}

// MaxSupportRange finds the range of the driver attribute maximizing
// support among ranges whose target average is at least minAverage
// (Definition 5.3).
func MaxSupportRange(rel Relation, driver, target string, minAverage float64, cfg Config) (AvgRange, error) {
	return miner.MaxSupportRange(rel, driver, target, minAverage, cfg)
}

// SampleBankData generates the synthetic bank-customers data set used
// throughout the documentation: Balance, Age, ServiceYears (numeric)
// and CardLoan, Mortgage, AutoWithdraw (Boolean), with a planted
// association between Balance and CardLoan. Deterministic in seed.
func SampleBankData(n int, seed int64) (*MemoryRelation, error) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		return nil, err
	}
	return datagen.Materialize(bank, n, seed)
}

// SampleRetailData generates the synthetic retail-baskets data set:
// Amount, ItemCount (numeric) and five item attributes (Boolean) with
// planted correlations. Deterministic in seed.
func SampleRetailData(n int, seed int64) (*MemoryRelation, error) {
	ret, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		return nil, err
	}
	return datagen.Materialize(ret, n, seed)
}
