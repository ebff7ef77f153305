// Out-of-core example: the scenario that motivates the paper's
// randomized bucketing. The data set is streamed to disk tuple by tuple
// (never fully materialized in memory), then mined directly from the
// file: every pass over the data is a sequential scan, the only thing
// ever sorted is the 40·M-tuple sample, and memory stays O(M + S)
// regardless of the relation's size.
//
// The file is written in the v2 column-major format: tuples are packed
// into 64Ki-row block groups with each column contiguous inside its
// group, so the targeted Mine query below reads only the Amount and
// Premium columns (~8 of the ~16 bytes each tuple occupies; the Items
// column and the Returned bitmap are never fetched), and the
// scan overlaps disk reads of the next block group with decoding and
// counting of the current one. Legacy row-major files written with
// optrule.NewDiskWriter stay readable — OpenDisk negotiates the
// version — and can be migrated either way with optrule.ConvertDisk or
// `optdata convert -in old.opr -out new.opr`.
//
// The v3 format (optrule.NewDiskWriterV3, or `optdata convert ...
// -format v3`) keeps the same block-group layout but compresses each
// column block — whole-unit amounts delta-bit-pack to a few bits per
// row instead of eight bytes — and records per-block min/max zone
// maps, so predicated scans skip block groups that provably contain no
// matching row. This example converts the relation to v3 and re-mines
// it: same rules, smaller file, fewer bytes read.
//
// Zone maps only refute what the row order lets them prove, so the
// example then re-clusters the v3 file by Amount
// (optrule.ConvertDiskClustered, or `optdata convert -format v3
// -cluster Amount` by index) and runs a conditioned query filtered on
// the band-correlated Audited flag: on the clustered file the flag is
// constant outside the band's block groups, the zone maps refute the
// filter wholesale, and the counting pass reads a small fraction of
// the bytes the unclustered file needs. (Conditioned rules from the
// two layouts are statistically equivalent, not bit-identical —
// sampling consumes rows in storage order; see the "Clustering &
// prunable layouts" section of the package docs.)
//
// # Sharding
//
// When one file is no longer enough, the same logical relation can
// span many shard files behind a small manifest (optrule.OpenSharded /
// NewShardedWriter / ConvertToSharded, or `optdata -shards N`): global
// row order is the concatenation of the shards, so mining results are
// rule-for-rule identical to the single file — this example asserts
// that below. Shard when the relation outgrows one device, when shards
// can sit on independent disks (the parallel counting pass gives each
// worker chunks cut at shard boundaries, each read through its own file
// handle), or when data arrives in natural batches that should stay
// individually replaceable. Choosing the split: keep every shard many
// block groups large (tens of MB or more) so per-shard scan startup
// stays negligible, and pick the shard
// count from the hardware — one shard (or a few) per independent disk. Shard count is NOT a parallelism
// knob for CPUs; Config.PEs and Config.Workers cover that, and the
// parallel counting engines already split work at shard and
// block-group boundaries on any layout.
//
//	go run ./examples/outofcore
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"optrule"
)

func main() {
	dir, err := os.MkdirTemp("", "optrule-outofcore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "transactions.opr")

	// Stream 2 million tuples to disk without holding them in memory.
	// (Transaction amount drives a planted "premium customer" flag.)
	const n = 2_000_000
	if err := writeTransactions(path, n); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d tuples (%.1f MB) to %s\n", n, float64(st.Size())/1e6, path)

	// Open the relation; only the header and block directory are read
	// here.
	rel, err := optrule.OpenDisk(path)
	if err != nil {
		log.Fatal(err)
	}

	// Mine straight off the file: one sampling scan + one counting scan,
	// each touching only the columns the query needs.
	cfg := optrule.Config{
		MinSupport:    0.05,
		MinConfidence: 0.60,
		Buckets:       1000,
		Seed:          1,
	}
	sup, conf, err := optrule.Mine(rel, "Amount", "Premium", true, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noptimized rules mined from disk:")
	if sup != nil {
		fmt.Println("  ", sup)
	}
	if conf != nil {
		fmt.Println("  ", conf)
	}

	// Convert to the compressed v3 format and mine again: the rules must
	// be identical, while the file and the counted scan bytes shrink —
	// the whole-unit Amount column delta-bit-packs to a fraction of its
	// raw eight bytes per row.
	v3Path := filepath.Join(dir, "transactions_v3.opr")
	if err := optrule.ConvertDisk(path, v3Path, optrule.DiskFormatV3); err != nil {
		log.Fatal(err)
	}
	relV3, err := optrule.OpenDisk(v3Path)
	if err != nil {
		log.Fatal(err)
	}
	stV3, err := os.Stat(v3Path)
	if err != nil {
		log.Fatal(err)
	}
	sup3, conf3, err := optrule.Mine(relV3, "Amount", "Premium", true, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame rules mined from the compressed v3 file (%.1f MB vs %.1f MB; %.1f MB read vs %.1f MB):\n",
		float64(stV3.Size())/1e6, float64(st.Size())/1e6,
		float64(relV3.BytesRead())/1e6, float64(rel.BytesRead())/1e6)
	if sup3 != nil {
		fmt.Println("  ", sup3)
	}
	if conf3 != nil {
		fmt.Println("  ", conf3)
	}
	if (sup == nil) != (sup3 == nil) || (conf == nil) != (conf3 == nil) ||
		(sup != nil && *sup != *sup3) || (conf != nil && *conf != *conf3) {
		log.Fatal("v3 relation mined different rules than the v2 file")
	}

	// Re-cluster the v3 file by Amount and run the same conditioned
	// query on both layouts: the Audited filter only survives in the
	// band's block groups, which on the clustered file are the only
	// groups whose bytes ever leave the disk.
	clPath := filepath.Join(dir, "transactions_v3_clustered.opr")
	if err := optrule.ConvertDiskClustered(v3Path, clPath, optrule.DiskFormatV3, 0); err != nil {
		log.Fatal(err)
	}
	relCl, err := optrule.OpenDisk(clPath)
	if err != nil {
		log.Fatal(err)
	}
	defer relCl.Close()
	cond := []optrule.Condition{{Attr: "Audited", Value: true}}
	relV3.ResetBytesRead()
	supF, confF, err := optrule.Mine(relV3, "Amount", "Premium", true, cond, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bytesUnclustered := relV3.BytesRead()
	supFC, confFC, err := optrule.Mine(relCl, "Amount", "Premium", true, cond, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bytesClustered := relCl.BytesRead()
	fmt.Printf("\nconditioned query (Audited=true) after clustering by Amount: %.2f MB read vs %.2f MB unclustered (%.0fx fewer)\n",
		float64(bytesClustered)/1e6, float64(bytesUnclustered)/1e6,
		float64(bytesUnclustered)/float64(bytesClustered))
	for _, r := range []*optrule.Rule{supFC, confFC} {
		if r != nil {
			fmt.Println("  ", r)
		}
	}
	if supF == nil != (supFC == nil) || confF == nil != (confFC == nil) {
		log.Fatal("clustered layout found different conditioned rule kinds than unclustered")
	}
	if 2*bytesClustered > bytesUnclustered {
		log.Fatal("clustering did not cut the conditioned query's bytes at least in half")
	}

	// Shard the same relation four ways (in production each shard would
	// sit on its own disk) and mine again: same logical relation, same
	// global row order, identical rules.
	manifest := filepath.Join(dir, "transactions.oprs")
	if err := optrule.ConvertToSharded(rel, manifest, 4, 0); err != nil {
		log.Fatal(err)
	}
	sharded, err := optrule.OpenSharded(manifest)
	if err != nil {
		log.Fatal(err)
	}
	defer sharded.Close()
	sup2, conf2, err := optrule.Mine(sharded, "Amount", "Premium", true, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame rules mined from %d shards (%.1f MB read):\n",
		sharded.NumShards(), float64(sharded.BytesRead())/1e6)
	if sup2 != nil {
		fmt.Println("  ", sup2)
	}
	if conf2 != nil {
		fmt.Println("  ", conf2)
	}
	if (sup == nil) != (sup2 == nil) || (conf == nil) != (conf2 == nil) ||
		(sup != nil && *sup != *sup2) || (conf != nil && *conf != *conf2) {
		log.Fatal("sharded relation mined different rules than the single file")
	}
}

// writeTransactions streams synthetic transactions to path in the v2
// column-major format: Amount is lognormal, rounded to whole currency
// units (which is also what makes it compressible in v3); transactions
// with Amount in [150, 600] are premium with probability 0.8, others
// with 0.1. Audited is set exactly for that band — the deterministic
// function of Amount that clustering turns into a prunable filter.
func writeTransactions(path string, n int) error {
	w, err := optrule.NewDiskWriterV2(path, optrule.Schema{
		{Name: "Amount", Kind: optrule.Numeric},
		{Name: "Items", Kind: optrule.Numeric},
		{Name: "Premium", Kind: optrule.Boolean},
		{Name: "Returned", Kind: optrule.Boolean},
		{Name: "Audited", Kind: optrule.Boolean},
	}, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		amount := math.Round(20 * rng.ExpFloat64() * (1 + 9*rng.Float64()))
		items := float64(1 + rng.Intn(12))
		inBand := amount >= 150 && amount <= 600
		p := 0.1
		if inBand {
			p = 0.8
		}
		err := w.Append(
			[]float64{amount, items},
			[]bool{rng.Float64() < p, rng.Float64() < 0.03, inBand},
		)
		if err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
