package optlint_test

import (
	"testing"

	"optrule/internal/analysis"
	"optrule/internal/analysis/analysistest"
	"optrule/internal/analysis/optlint"
)

func TestMapOrder(t *testing.T)    { analysistest.Run(t, optlint.MapOrder, "maporder") }
func TestNonDet(t *testing.T)      { analysistest.Run(t, optlint.NonDet, "nondet") }
func TestFloatMerge(t *testing.T)  { analysistest.Run(t, optlint.FloatMerge, "floatmerge") }
func TestByteCount(t *testing.T)   { analysistest.Run(t, optlint.ByteCount, "bytecount") }
func TestAtomicWrite(t *testing.T) { analysistest.Run(t, optlint.AtomicWrite, "atomicwrite") }
func TestCloseCheck(t *testing.T)  { analysistest.Run(t, optlint.CloseCheck, "closecheck") }
func TestGoStmt(t *testing.T)      { analysistest.Run(t, optlint.GoStmt, "gostmt") }
func TestCapSniff(t *testing.T)    { analysistest.Run(t, optlint.CapSniff, "capsniff") }

// TestSuiteSelfCheck runs the full suite over the whole module the way
// cmd/optlint does and requires zero findings: every true positive is
// fixed and every intended exception carries an //optlint:ignore
// directive. A regression here means a new invariant violation crept in.
func TestSuiteSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := analysis.Load("../../..", "optrule/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	for _, pkg := range pkgs {
		findings, err := analysis.RunAnalyzers(pkg, optlint.Suite(), true)
		if err != nil {
			t.Fatalf("%s: %v", pkg.PkgPath, err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}
