package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestKernelExperimentRuns runs the counting-kernel comparison at a
// small scale: it must produce all four timings, and the kernel
// differential inside Kernel (reference vs vectorized statistics, on
// the rules batch and the mixed batch) must hold — any deviation is an
// error, not a benchmark number.
func TestKernelExperimentRuns(t *testing.T) {
	res, err := Kernel(30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RulesRefSeconds <= 0 || res.RulesVecSeconds <= 0 || res.RefSeconds <= 0 || res.VecSeconds <= 0 {
		t.Errorf("missing timings: %+v", res)
	}
	if res.RulesVecSpeedup <= 0 || res.VecSpeedup <= 0 {
		t.Errorf("ratios not computed: %+v", res)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Counting kernels") {
		t.Errorf("print output malformed: %s", buf.String())
	}
}
