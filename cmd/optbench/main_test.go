package main

import (
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestRunSelectsExperiments runs table1, the cheap deterministic
// experiment, alone and through a selector naming it twice, which runs
// it once; fig1 runs once, in TestRunJSONReport.
func TestRunSelectsExperiments(t *testing.T) {
	if err := run([]string{"-exp", "table1"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := run([]string{"-exp", "table1,table1", "-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if _, ok := rep.Results["table1"]; !ok || len(rep.Results) != 1 {
		t.Errorf("report holds %d results, want table1 alone", len(rep.Results))
	}
}

// fig1Table1MD5 is the MD5 of `optbench -exp fig1,table1 -json`'s
// bytes. The figures are float computations, pinned on amd64, whose Go
// compiler never fuses a multiply and an add into one rounding.
const fig1Table1MD5 = "4a4404f71d32bc858b381241d8c04d62"

// TestRunJSONReport pins the paper's Fig. 1 and Table I JSON report
// byte for byte, and checks its shape on every architecture.
func TestRunJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := run([]string{"-exp", "fig1,table1", "-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Results) != 2 {
		t.Errorf("report holds %d results, want 2", len(rep.Results))
	}
	for _, name := range []string{"fig1", "table1"} {
		if _, ok := rep.Results[name]; !ok {
			t.Errorf("report missing %q", name)
		}
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	if sum := md5.Sum(data); hex.EncodeToString(sum[:]) != fig1Table1MD5 {
		t.Errorf("fig1,table1 report MD5 = %x, want %s", sum, fig1Table1MD5)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Errorf("unknown experiment accepted")
	}
	// A typo must be rejected even when other requested names are valid,
	// not silently skipped.
	if err := run([]string{"-exp", "table1,colsan"}); err == nil {
		t.Errorf("unknown experiment amid valid ones accepted")
	}
	// A trailing comma is harmless; an all-empty selector is an error.
	if err := run([]string{"-exp", "table1,"}); err != nil {
		t.Errorf("trailing comma rejected: %v", err)
	}
	if err := run([]string{"-exp", ","}); err == nil {
		t.Errorf("empty selector accepted")
	}
}
