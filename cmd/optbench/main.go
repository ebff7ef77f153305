// Command optbench regenerates every table and figure of the paper's
// evaluation and prints them in the paper's format.
//
//	optbench -exp all          # everything at scaled-down sizes
//	optbench -exp fig9 -full   # Figure 9 at paper scale (5·10⁵…5·10⁶ tuples)
//	optbench -exp fig10        # optimized-confidence rule timings
//	optbench -exp fig1,table1 -json BENCH_paper.json
//
// Experiments: fig1 (sample-size analysis), table1 (approximation error
// bounds and measurements), fig9 (bucketing performance), fig9disk
// (out-of-core bucketing vs external sort, counted I/O), fig10
// (optimized-confidence rules vs naive), fig11 (optimized-support rules
// vs naive), par (parallel bucketing, Section 3.3), ablate (sample
// factor, hull tree, bucket count and bucketing scheme ablations) and
// regions (the 2-D region extensions).
//
// -json FILE additionally writes every experiment's structured result
// to FILE as a single JSON document. Engine performance is measured by
// the perfbench module, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "optbench:", err)
		os.Exit(1)
	}
}

// report is the -json document: experiment name -> structured result.
type report struct {
	Seed    int64          `json:"seed"`
	Full    bool           `json:"full"`
	Results map[string]any `json:"results"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("optbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: fig1, table1, fig9, fig9disk, fig10, fig11, par, ablate, regions, or all")
	full := fs.Bool("full", false, "paper-scale sizes (slow; needs several GB of RAM for fig9)")
	seed := fs.Int64("seed", 1, "random seed")
	jsonPath := fs.String("json", "", "also write structured results as JSON to this file (e.g. BENCH_optbench.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		if name := strings.TrimSpace(e); name != "" {
			want[name] = true
		}
	}
	if len(want) == 0 {
		return fmt.Errorf("no experiment selected")
	}
	all := want["all"]
	rep := report{Seed: *seed, Full: *full, Results: map[string]any{}}

	runners := []struct {
		name string
		run  func(full bool, seed int64) (any, error)
	}{
		{"fig1", runFig1},
		{"table1", runTable1},
		{"fig9", runFig9},
		{"fig9disk", runFig9Disk},
		{"fig10", runFig10},
		{"fig11", runFig11},
		{"par", runParallel},
		{"ablate", runAblations},
		{"regions", runRegions},
	}
	known := map[string]bool{"all": true}
	for _, r := range runners {
		known[r.name] = true
	}
	for name := range want {
		if !known[name] {
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	var runErr error
	for _, r := range runners {
		if !all && !want[r.name] {
			continue
		}
		res, err := r.run(*full, *seed)
		if err != nil {
			runErr = fmt.Errorf("%s: %w", r.name, err)
			break
		}
		rep.Results[r.name] = res
	}
	// Write whatever completed even when a runner failed: hours of
	// paper-scale results should not vanish because the last experiment
	// hit a transient error.
	if *jsonPath != "" && len(rep.Results) > 0 {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			data = append(data, '\n')
			err = writeFileAtomic(*jsonPath, data)
		}
		if err != nil {
			if runErr == nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "optbench: writing %s: %v\n", *jsonPath, err)
		} else {
			fmt.Printf("wrote %d experiment results to %s\n", len(rep.Results), *jsonPath)
		}
	}
	return runErr
}

// writeFileAtomic writes data through a temp file renamed over path,
// so a failed run cannot truncate the results file of a previous one —
// hours of paper-scale numbers may be sitting there.
func writeFileAtomic(path string, data []byte) error {
	tf, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := tf.Name()
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
