package miner

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"optrule/internal/relation"
)

// faultyRelation wraps a relation and fails its Nth read — any scan or
// point-read call — for fault injection in the orchestration layer:
// errors from any of the passes (sampling, counting) must surface,
// never panic or deadlock. The read counter is atomic because the
// counting workers scan concurrently.
type faultyRelation struct {
	relation.Relation
	failOn int64 // read number to fail (1-based); 0 fails none
	reads  atomic.Int64
}

// fault counts one read and fails it when it is the failOn-th.
func (f *faultyRelation) fault() error {
	if n := f.reads.Add(1); n == f.failOn {
		return fmt.Errorf("injected fault on read %d", n)
	}
	return nil
}

func (f *faultyRelation) Scan(cols relation.ColumnSet, fn func(*relation.Batch) error) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.Relation.Scan(cols, fn)
}

func (f *faultyRelation) ScanRange(start, end int, cols relation.ColumnSet, fn func(*relation.Batch) error) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.Relation.ScanRange(start, end, cols, fn)
}

func (f *faultyRelation) ScanRangePruned(start, end int, cols relation.ColumnSet, pred *relation.Predicate,
	skip func(int) error, fn func(*relation.Batch) error) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.Relation.ScanRangePruned(start, end, cols, pred, skip, fn)
}

func (f *faultyRelation) ReadNumericPoints(attr int, rows []int, out []float64) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.Relation.ReadNumericPoints(attr, rows, out)
}

// failEachRead runs run once over a healthy wrapper of base to count
// its reads, then once per read with that read failing: every injected
// fault must surface as run's error. It returns the read count.
func failEachRead(t *testing.T, name string, base relation.Relation, run func(relation.Relation) error) int64 {
	t.Helper()
	healthy := &faultyRelation{Relation: base}
	if err := run(healthy); err != nil {
		t.Fatalf("%s: healthy run: %v", name, err)
	}
	reads := healthy.reads.Load()
	if reads == 0 {
		t.Fatalf("%s: no reads to fail", name)
	}
	for failOn := int64(1); failOn <= reads; failOn++ {
		err := run(&faultyRelation{Relation: base, failOn: failOn})
		if err == nil {
			t.Fatalf("%s: fault on read %d of %d swallowed", name, failOn, reads)
		}
		if !strings.Contains(err.Error(), "injected fault") {
			t.Fatalf("%s: fault on read %d: unexpected error: %v", name, failOn, err)
		}
	}
	return reads
}

func TestMineAllSurfacesScanErrors(t *testing.T) {
	base, _ := bankRelation(t, 2000)
	// The fused pipeline reads in two passes: one point read per
	// sampled attribute, then the counting scan, here in one chunk.
	// Fail each read.
	reads := failEachRead(t, "MineAll", base, func(rel relation.Relation) error {
		_, err := MineAll(rel, Config{Buckets: 50, Seed: 1, Workers: 1, PEs: 1})
		return err
	})
	if reads != 4 {
		t.Errorf("MineAll made %d reads, want 3 point reads and 1 counting scan", reads)
	}
	// The legacy per-attribute path scans once per attribute per phase.
	failEachRead(t, "legacy", base, func(rel relation.Relation) error {
		_, err := mineAllPerAttribute(rel, Config{Buckets: 50, Seed: 1, Workers: 1})
		return err
	})
}

func TestMineAllSurfacesErrorsUnderConcurrency(t *testing.T) {
	base, _ := bankRelation(t, 2000)
	// Fused path: fail each read with the counting scan split across
	// four workers and extraction racing on eight — the error must still
	// surface and the call must return (no goroutine leak / deadlock).
	failEachRead(t, "MineAll", base, func(rel relation.Relation) error {
		_, err := MineAll(rel, Config{Buckets: 50, Seed: 1, Workers: 8, PEs: 4})
		return err
	})
	// Legacy path: workers scan concurrently, so a mid-stream fault
	// races against healthy scans.
	failEachRead(t, "legacy", base, func(rel relation.Relation) error {
		_, err := mineAllPerAttribute(rel, Config{Buckets: 50, Seed: 1, Workers: 8})
		return err
	})
}

func TestTargetedMineSurfacesScanErrors(t *testing.T) {
	base, _ := bankRelation(t, 1000)
	for _, c := range []struct {
		name string
		run  func(relation.Relation) error
	}{
		{"mine", func(rel relation.Relation) error {
			_, _, err := Mine(rel, "Balance", "CardLoan", true, nil, Config{Buckets: 20, Seed: 1})
			return err
		}},
		{"average", func(rel relation.Relation) error {
			_, err := MaxAverageRange(rel, "Balance", "Age", 0.1, Config{Buckets: 20})
			return err
		}},
		{"profile", func(rel relation.Relation) error {
			_, err := BuildProfile(rel, "Balance", "CardLoan", true, 10, Config{})
			return err
		}},
		{"2D", func(rel relation.Relation) error {
			_, err := Mine2D(rel, "Balance", "Age", "CardLoan", true, OptimizedSupport, 8, Config{})
			return err
		}},
		{"describe", func(rel relation.Relation) error {
			_, err := Describe(rel)
			return err
		}},
		{"verify", func(rel relation.Relation) error {
			_, err := Verify(rel, Rule{Numeric: "Balance", Objective: "CardLoan"}, nil)
			return err
		}},
	} {
		failEachRead(t, c.name, base, c.run)
	}
}
