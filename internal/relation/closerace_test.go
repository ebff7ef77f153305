package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// closeRaceFixtures opens one relation per storage backend — v1, v2,
// and v3 single files plus a mixed-format sharded relation — over the
// same deterministic tuple stream.
func closeRaceFixtures(t *testing.T, n int) map[string]Relation {
	t.Helper()
	schema := bankSchema()
	rng := rand.New(rand.NewSource(77))
	rows := make([][2]interface{}, 0, n)
	for i := 0; i < n; i++ {
		nums := []float64{rng.Float64() * 1e6, float64(rng.Intn(100))}
		bools := []bool{rng.Intn(2) == 0, rng.Intn(3) == 0}
		rows = append(rows, [2]interface{}{nums, bools})
	}
	dir := t.TempDir()
	fixtures := map[string]Relation{}
	for _, version := range []int{DiskFormatV1, DiskFormatV2, DiskFormatV3} {
		path := filepath.Join(dir, fmt.Sprintf("v%d.opr", version))
		dw, err := NewDiskWriterFormat(path, schema, version)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := dw.Append(r[0].([]float64), r[1].([]bool)); err != nil {
				t.Fatal(err)
			}
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		dr, err := OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		fixtures[fmt.Sprintf("v%d", version)] = dr
	}
	manifest, _ := writeShardedFixture(t, 77, []int{n / 2, n - n/2}, []int{DiskFormatV1, DiskFormatV2}, 128)
	sr, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	fixtures["sharded"] = sr
	return fixtures
}

type busyCloser interface {
	Close() error
}

// TestCloseDuringScanReturnsErrBusy pins the defined Close‖Scan
// contract on every disk backend: Close during an in-flight scan
// returns ErrBusy and releases nothing (the scan completes unharmed);
// Close after the scan succeeds; and the relation stays usable for
// point reads afterwards, exactly as when no scan ever raced it.
func TestCloseDuringScanReturnsErrBusy(t *testing.T) {
	for name, rel := range closeRaceFixtures(t, 600) {
		t.Run(name, func(t *testing.T) {
			started := make(chan struct{})
			unblock := make(chan struct{})
			scanDone := make(chan error, 1)
			go func() {
				first := true
				scanDone <- rel.Scan(ColumnSet{Numeric: []int{0}}, func(b *Batch) error {
					if first {
						first = false
						close(started)
						<-unblock
					}
					return nil
				})
			}()
			<-started
			err := rel.(busyCloser).Close()
			if !errors.Is(err, ErrBusy) {
				t.Errorf("Close during scan: got %v, want ErrBusy", err)
			}
			close(unblock)
			if err := <-scanDone; err != nil {
				t.Fatalf("scan raced by Close failed: %v", err)
			}
			if err := rel.(busyCloser).Close(); err != nil {
				t.Errorf("Close after scan: %v", err)
			}
			// Usable-after-Close is part of the Close contract: point
			// reads lazily re-establish what Close released.
			out := make([]float64, 2)
			if err := rel.ReadNumericPoints(0, []int{0, 599}, out); err != nil {
				t.Errorf("point read after Close: %v", err)
			}
		})
	}
}

// TestCloseScanChurn hammers each backend with concurrent scans,
// point reads, and Closes. Run under -race this pins that the ops
// guard makes the interleaving well-defined: every Close returns nil
// or ErrBusy, every scan and point read completes cleanly, and nothing
// races on the point-read mapping.
func TestCloseScanChurn(t *testing.T) {
	for name, rel := range closeRaceFixtures(t, 400) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 15; i++ {
						if err := rel.Scan(ColumnSet{Numeric: []int{0}, Bool: []int{2}}, func(b *Batch) error {
							return nil
						}); err != nil {
							t.Errorf("scan: %v", err)
							return
						}
						out := make([]float64, 1)
						if err := rel.ReadNumericPoints(0, []int{i}, out); err != nil {
							t.Errorf("point read: %v", err)
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := rel.(busyCloser).Close(); err != nil && !errors.Is(err, ErrBusy) {
						t.Errorf("churned Close: %v", err)
						return
					}
				}
			}()
			wg.Wait()
		})
	}
}
