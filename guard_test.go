package optrule

import (
	"os"
	"testing"
	"time"
)

// TestBenchGuardrails is the CI wall-clock regression gate, enabled
// with OPTRULE_BENCH_GUARD=1 (it stays silent in ordinary test runs so
// local suites are not hostage to machine speed). Each guarded
// benchmark must finish an operation under a ceiling set several times
// above its healthy time on a 2-core CI runner — loose enough to
// absorb runner noise, tight enough to catch a gross regression such
// as the default format accidentally changing or the counting kernel
// losing its vectorized passes.
func TestBenchGuardrails(t *testing.T) {
	if os.Getenv("OPTRULE_BENCH_GUARD") == "" {
		t.Skip("set OPTRULE_BENCH_GUARD=1 to run the wall-clock guardrails")
	}
	guards := []struct {
		name  string
		bench func(*testing.B)
		max   time.Duration
	}{
		// 17-24 ms healthy at GOMAXPROCS 2 (31-45 ms at 1) on a 2-vCPU
		// x86-64 host, 16 runs of 20 ops: 1M-tuple disk MineAll on the
		// default v2 format.
		{"MineAllDisk", BenchmarkMineAllDisk, 500 * time.Millisecond},
		// ~40ms healthy: single-pair 2-D miner on the 1M-tuple disk bank.
		{"Mine2D", BenchmarkMine2D, 250 * time.Millisecond},
	}
	for _, g := range guards {
		g := g
		t.Run(g.name, func(t *testing.T) {
			res := testing.Benchmark(g.bench)
			got := time.Duration(res.NsPerOp())
			t.Logf("%s: %v/op (ceiling %v)", g.name, got, g.max)
			if got > g.max {
				t.Errorf("%s took %v per op, ceiling %v — a perf regression, not noise",
					g.name, got, g.max)
			}
		})
	}
}
