// Command optdata generates the synthetic data sets used by the
// examples and experiments, as CSV (for interchange) or the binary
// .opr format (for out-of-core mining), and converts relations
// between format versions and shard layouts.
//
// Usage:
//
//	optdata -kind bank   -n 1000000 -seed 1 -out bank.csv
//	optdata -kind retail -n 500000  -out baskets.opr
//	optdata -kind perf   -n 5000000 -numeric 8 -bool 8 -out perf.opr
//	optdata -kind bank   -n 1000000 -format v1 -out legacy.opr
//	optdata -kind bank   -n 4000000 -shards 4 -out bank.oprs
//	optdata convert -in legacy.opr -out columnar.opr
//	optdata convert -in columnar.opr -out legacy.opr -format v1
//	optdata convert -in bank.opr -out bank.oprs -shards 4
//	optdata convert -in bank.oprs -out bank.opr
//	optdata convert -in bank.opr -out clustered.opr -format v3 -cluster Balance
//	optdata inspect -in clustered.opr
//	optdata append -to bank.oprs -kind bank -n 10000 -seed 1 -skip 4000000
//	optdata append -to bank.oprs -in newrows.csv
//
// The bank data plants the paper's headline association
// (Balance ∈ [3000, 20000]) ⇒ (CardLoan=yes); retail plants item
// correlations and a premium-amount association; perf reproduces the
// 8-numeric + 8-Boolean random shape of the paper's Section 6.1
// performance evaluation.
//
// .opr files default to the v2 column-major block-group format, whose
// selective column scans read only the attributes a query touches;
// -format v3 adds per-block compression (delta, dictionary, bitmap)
// and min/max zone maps that let predicated scans skip whole block
// groups; -format v1 writes the legacy row-major format. With -shards N (N >
// 1) the output is a SHARDED relation: -out names the manifest
// (conventionally *.oprs) and N shard files are written next to it —
// the layout whose shards can sit on independent disks, read in
// parallel by the counting workers.
// The convert subcommand migrates between any of these: it sniffs
// whether -in is a single file or a manifest, and -shards picks the
// output layout (0 or 1 = single file). Conversion is only needed to
// change a relation's scan cost profile, not to keep it readable —
// the readers accept every combination. convert -cluster <attr>
// reorders the destination's rows by that column (an in-memory sort;
// see relation.ClusterBy) so v3 zone maps partition the value space
// and selective scans prune whole block groups. The inspect subcommand
// reads a v3 file's (or sharded v3 manifest's) block directory and
// reports each column's encoding mix, compression ratio, and zone-map
// tightness — the numbers that predict whether clustering paid off.
//
// The append subcommand grows an existing SHARDED relation in place:
// new rows land in fresh shard files and their manifest lines are
// committed in place past the manifest's committed end, so readers
// always see either the old relation or the whole grown one. Rows
// come from a CSV file (-in, parsed against the relation's own
// schema) or from a generator: with the prefix property of the
// deterministic generators, -kind/-seed/-skip/-n
// appends rows [skip, skip+n) of the seed's stream — so a relation
// originally built with `-kind bank -n 4000000 -seed 1` grows into a
// bit-identical twin of a from-scratch 4010000-row generation via
// `append -skip 4000000 -n 10000`. A schema mismatch is refused
// before any file is touched. Run one append per relation at a time:
// each append deletes the shard files an unfinished one left behind,
// so a second append running alongside would delete the first one's
// new shards before they are committed. Appending is what makes
// incremental mining (miner.Session.RefreshFromStorage; its byte
// ceiling is pinned by miner's TestAppendByteCeiling) O(Δ) instead of
// O(n): open sessions fold statistics for just the appended tail into
// their caches.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "optdata:", err)
		os.Exit(1)
	}
}

// parseFormat maps a -format flag value to a relation disk version.
func parseFormat(s string) (int, error) {
	switch s {
	case "v1", "1":
		return relation.DiskFormatV1, nil
	case "v2", "2":
		return relation.DiskFormatV2, nil
	case "v3", "3":
		return relation.DiskFormatV3, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want v1, v2, or v3)", s)
	}
}

// isOprPath reports whether the path names a binary relation output
// (single-file .opr or sharded-manifest .oprs).
func isOprPath(path string) bool {
	return strings.HasSuffix(path, ".opr") || strings.HasSuffix(path, ".oprs")
}

// newSource builds the row generator for a data set kind. The shape
// flags apply to perf only.
func newSource(kind string, numNumeric, numBool int) (datagen.RowSource, error) {
	switch kind {
	case "bank":
		bank, err := datagen.NewBank(datagen.BankConfig{})
		if err != nil {
			return nil, err
		}
		return bank, nil
	case "retail":
		ret, err := datagen.NewRetail(datagen.DefaultRetailConfig())
		if err != nil {
			return nil, err
		}
		return ret, nil
	case "perf":
		ps, err := datagen.NewPerfShape(numNumeric, numBool, nil)
		if err != nil {
			return nil, err
		}
		return ps, nil
	default:
		return nil, fmt.Errorf("unknown kind %q (want bank, retail, or perf)", kind)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "convert" {
		return runConvert(args[1:])
	}
	if len(args) > 0 && args[0] == "inspect" {
		return runInspect(args[1:])
	}
	if len(args) > 0 && args[0] == "append" {
		return runAppend(args[1:])
	}
	fs := flag.NewFlagSet("optdata", flag.ContinueOnError)
	kind := fs.String("kind", "bank", "data set kind: bank, retail, or perf")
	n := fs.Int("n", 100000, "number of tuples")
	seed := fs.Int64("seed", 1, "random seed (deterministic output)")
	out := fs.String("out", "", "output path; .csv, .opr, or .oprs decides the format (required)")
	format := fs.String("format", "v2", ".opr format version: v2 (column-major block groups), v3 (compressed blocks with zone maps), or v1 (row-major)")
	shards := fs.Int("shards", 0, "split the binary output into this many shard files behind a manifest (0 = single file)")
	numNumeric := fs.Int("numeric", 8, "perf only: numeric attribute count")
	numBool := fs.Int("bool", 8, "perf only: Boolean attribute count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative")
	}
	version, err := parseFormat(*format)
	if err != nil {
		return err
	}
	src, err := newSource(*kind, *numNumeric, *numBool)
	if err != nil {
		return err
	}

	switch {
	case isOprPath(*out):
		if *shards > 1 {
			if err := datagen.WriteSharded(*out, src, *n, *seed, *shards, version); err != nil {
				return err
			}
			fmt.Printf("wrote %d %s tuples to %s (%d shards)\n", *n, *kind, *out, *shards)
			return nil
		}
		if err := datagen.WriteDiskFormat(*out, src, *n, *seed, version); err != nil {
			return err
		}
	case strings.HasSuffix(*out, ".csv"):
		if *shards > 1 {
			return fmt.Errorf("-shards applies to binary output, not CSV")
		}
		rel, err := datagen.Materialize(src, *n, *seed)
		if err != nil {
			return err
		}
		err = writeFileStaged(*out, func(w io.Writer) error {
			return relation.WriteCSV(w, rel)
		})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("output path must end in .csv, .opr, or .oprs")
	}
	fmt.Printf("wrote %d %s tuples to %s\n", *n, *kind, *out)
	return nil
}

// describeData renders a relation's layout for the convert report.
func describeData(rel relation.DataRelation) string {
	switch r := rel.(type) {
	case *relation.DiskRelation:
		return fmt.Sprintf("v%d", r.Version())
	case *relation.ShardedRelation:
		return fmt.Sprintf("%d shards", r.NumShards())
	default:
		return "unknown"
	}
}

// runConvert migrates a relation between format versions and shard
// layouts: single file to single file, single file to sharded, sharded
// to single file, or resharding.
func runConvert(args []string) error {
	fs := flag.NewFlagSet("optdata convert", flag.ContinueOnError)
	in := fs.String("in", "", "source path: .opr file or shard manifest (required)")
	out := fs.String("out", "", "destination path (required)")
	format := fs.String("format", "v2", "target format version: v2, v3, or v1")
	shards := fs.Int("shards", 0, "shard the destination into this many files behind a manifest (0 = single file)")
	cluster := fs.String("cluster", "", "reorder the destination's rows by this column (attribute name) so zone maps partition the value space; buffers the relation in memory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert needs -in and -out")
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative")
	}
	version, err := parseFormat(*format)
	if err != nil {
		return err
	}
	src, err := relation.OpenData(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	clusterAttr := -1
	if *cluster != "" {
		if *shards > 1 {
			return fmt.Errorf("-cluster with -shards is not supported in one step: cluster to a single file first, then convert that file to shards (order is preserved)")
		}
		for i, attr := range src.Schema() {
			if attr.Name == *cluster {
				clusterAttr = i
				break
			}
		}
		if clusterAttr < 0 {
			return fmt.Errorf("cluster column %q not in schema %v", *cluster, attrNames(src.Schema()))
		}
	}
	if *shards > 1 {
		if err := relation.ConvertToSharded(src, *out, *shards, version); err != nil {
			return err
		}
		fmt.Printf("converted %s (%s, %d tuples) to %s (%s, %d shards)\n",
			*in, describeData(src), src.NumTuples(), *out, *format, *shards)
		return nil
	}
	if clusterAttr >= 0 {
		if err := relation.ConvertFileClustered(src, *out, version, clusterAttr); err != nil {
			return err
		}
		fmt.Printf("converted %s (%s, %d tuples) to %s (%s, clustered by %s)\n",
			*in, describeData(src), src.NumTuples(), *out, *format, *cluster)
		return nil
	}
	if err := relation.ConvertFile(src, *out, version); err != nil {
		return err
	}
	fmt.Printf("converted %s (%s, %d tuples) to %s (%s)\n", *in, describeData(src), src.NumTuples(), *out, *format)
	return nil
}

// runAppend grows an existing sharded relation: new rows are written
// to fresh shard files and committed by writing their manifest lines
// in place past the committed end, leaving the original shards and
// manifest lines untouched. Rows come either from a CSV file parsed
// against the relation's own schema, or from a generator offset into
// the seed's deterministic stream with -skip (the prefix property:
// rows [skip, skip+n) of the stream are exactly what a relation built
// from the first skip rows is missing).
func runAppend(args []string) error {
	fs := flag.NewFlagSet("optdata append", flag.ContinueOnError)
	to := fs.String("to", "", "shard manifest of the relation to grow (required; append needs a sharded relation — use convert to shard a single file first; run one append per relation at a time)")
	in := fs.String("in", "", "CSV file holding the rows to append; mutually exclusive with generated rows")
	kind := fs.String("kind", "bank", "generated rows: data set kind (bank, retail, or perf)")
	n := fs.Int("n", 0, "generated rows: number of tuples to append")
	seed := fs.Int64("seed", 1, "generated rows: seed of the stream to continue (match the original generation)")
	skip := fs.Int("skip", 0, "generated rows: stream offset — skip this many rows before taking n (match the relation's current tuple count to continue its stream)")
	format := fs.String("format", "v2", "format version for the new shard files: v2, v3, or v1 (existing shards keep theirs)")
	rowsPerShard := fs.Int("rows-per-shard", 0, "split appended rows into shards of this many rows (0 = one shard for the whole batch)")
	numNumeric := fs.Int("numeric", 8, "perf only: numeric attribute count")
	numBool := fs.Int("bool", 8, "perf only: Boolean attribute count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("append needs -to")
	}
	if *rowsPerShard < 0 {
		return fmt.Errorf("-rows-per-shard must be non-negative")
	}
	version, err := parseFormat(*format)
	if err != nil {
		return err
	}

	var tail *relation.MemoryRelation
	switch {
	case *in != "":
		if *n != 0 || *skip != 0 {
			return fmt.Errorf("-in reads rows from CSV; -n/-skip apply to generated rows only")
		}
		// Parse the CSV against the relation's own schema so column
		// names and kinds are checked up front with a line-level error,
		// not just refused wholesale by the appender.
		target, err := relation.OpenSharded(*to)
		if err != nil {
			return err
		}
		schema := target.Schema()
		target.Close()
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		tail, err = relation.ReadCSV(f, schema)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *in, err)
		}
	case *n > 0:
		src, err := newSource(*kind, *numNumeric, *numBool)
		if err != nil {
			return err
		}
		tail, err = datagen.MaterializeRange(src, *seed, *skip, *n)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("append needs rows: -in <csv> or -n > 0")
	}

	rows, err := relation.AppendToSharded(*to, tail, relation.AppendOptions{
		Format: version, RowsPerShard: *rowsPerShard,
	})
	if err != nil {
		return err
	}
	sr, err := relation.OpenSharded(*to)
	if err != nil {
		return fmt.Errorf("reopening after append: %w", err)
	}
	defer sr.Close()
	fmt.Printf("appended %d rows to %s (now %d tuples in %d shards)\n",
		rows, *to, sr.NumTuples(), sr.NumShards())
	return nil
}

// attrNames lists a schema's attribute names for error messages.
func attrNames(schema relation.Schema) []string {
	names := make([]string, len(schema))
	for i, attr := range schema {
		names[i] = attr.Name
	}
	return names
}

// runInspect prints the physical-layout report for a v3 file or a
// sharded manifest whose shards are v3: per-column encoding mix,
// compression ratio, and zone-map tightness/prunability.
func runInspect(args []string) error {
	fs := flag.NewFlagSet("optdata inspect", flag.ContinueOnError)
	in := fs.String("in", "", "path to inspect: v3 .opr file or shard manifest (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect needs -in")
	}
	src, err := relation.OpenData(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	switch r := src.(type) {
	case *relation.DiskRelation:
		insp, err := r.InspectLayout()
		if err != nil {
			return err
		}
		printInspection(insp)
	case *relation.ShardedRelation:
		paths := r.StoragePaths()[1:] // drop the manifest itself
		for i, p := range paths {
			dr, err := relation.OpenDisk(p)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			insp, err := dr.InspectLayout()
			dr.Close()
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("shard %d/%d:\n", i+1, len(paths))
			printInspection(insp)
		}
	default:
		return fmt.Errorf("cannot inspect %T", src)
	}
	return nil
}

// printInspection renders one file's LayoutInspection as a table.
func printInspection(insp *relation.LayoutInspection) {
	fmt.Printf("%s: v3, %d rows, %d block groups of %d rows\n",
		insp.Path, insp.Rows, insp.Groups, insp.GroupRows)
	fmt.Printf("  %-16s %-8s %-28s %12s %8s %10s %12s\n",
		"column", "kind", "encodings", "bytes", "vs raw", "tightness", "prunability")
	for _, col := range insp.Columns {
		kind := "numeric"
		if col.Kind == relation.Boolean {
			kind = "bool"
		}
		ratio := 1.0
		if col.RawBytes > 0 {
			ratio = float64(col.EncodedBytes) / float64(col.RawBytes)
		}
		fmt.Printf("  %-16s %-8s %-28s %12d %7.2fx %10.3f %12.3f\n",
			col.Name, kind, encodingMix(col.Encodings), col.EncodedBytes, ratio,
			col.ZoneTightness, col.Prunability)
	}
}

// encodingMix renders an encoding histogram as "delta:12 rle:4",
// sorted by count descending then name.
func encodingMix(counts map[string]int) string {
	type kv struct {
		name  string
		count int
	}
	mix := make([]kv, 0, len(counts))
	for name, count := range counts {
		mix = append(mix, kv{name, count})
	}
	sort.Slice(mix, func(i, j int) bool {
		if mix[i].count != mix[j].count {
			return mix[i].count > mix[j].count
		}
		return mix[i].name < mix[j].name
	})
	parts := make([]string, len(mix))
	for i, m := range mix {
		parts[i] = fmt.Sprintf("%s:%d", m.name, m.count)
	}
	return strings.Join(parts, " ")
}

// writeFileStaged streams the output into a temp file beside path and
// renames it over path only after a successful close, so an
// interrupted run never leaves a truncated file where a previous valid
// output may have been.
func writeFileStaged(path string, write func(w io.Writer) error) error {
	tf, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := tf.Name()
	if err := write(tf); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// CreateTemp's 0600 → the 0644 a plain create would give a CLI
	// output (modulo umask, which can only ever be stricter).
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
