package region

import (
	"math/rand"
	"runtime"
	"testing"
)

func benchGrid(side int) *Grid {
	rng := rand.New(rand.NewSource(1))
	return randomGrid(rng, side, side, 50)
}

func BenchmarkRectSweep64(b *testing.B) {
	g := benchGrid(64)
	minSup := float64(g.Total()) * 0.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalRectConfidence(g, minSup, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRectSupportSweep64(b *testing.B) {
	g := benchGrid(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalRectSupport(g, 0.5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxGainRect64(b *testing.B) {
	g := benchGrid(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxGainRect(g, 0.5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMonotoneDP64(b *testing.B) {
	g := benchGrid(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxGainXMonotone(g, 0.5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRectConvexDP64(b *testing.B) {
	g := benchGrid(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxGainRectilinearConvex(g, 0.5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveRectSweep16(b *testing.B) {
	g := benchGrid(16)
	minSup := float64(g.Total()) * 0.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := NaiveOptimalRectConfidence(g, minSup); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel-kernel benchmarks at the practical grid ceiling the
// parallel sweep raises (side 256): compare against the serial
// kernels above at side 64 — the sweep is O(side³), so side 256 is
// 64x the work of side 64, absorbed by the worker pool on multicore
// hardware.

func benchWorkers() int { return runtime.GOMAXPROCS(0) }

func BenchmarkRectSweepParallel256(b *testing.B) {
	g := benchGrid(256)
	minSup := float64(g.Total()) * 0.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalRectConfidence(g, minSup, benchWorkers()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxGainRectParallel256(b *testing.B) {
	g := benchGrid(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxGainRect(g, 0.5, benchWorkers()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMonotoneDPParallel256(b *testing.B) {
	g := benchGrid(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxGainXMonotone(g, 0.5, benchWorkers()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRectConvexDPParallel256(b *testing.B) {
	g := benchGrid(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxGainRectilinearConvex(g, 0.5, benchWorkers()); err != nil {
			b.Fatal(err)
		}
	}
}
