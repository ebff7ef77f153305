package miner

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"optrule/internal/relation"
)

func TestBuildProfileShape(t *testing.T) {
	rel := twoClusterRelation(t, 30000)
	prof, err := BuildProfile(rel, "X", "B", true, 20, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Buckets) != 20 {
		t.Fatalf("buckets = %d, want 20", len(prof.Buckets))
	}
	total := 0
	for i, b := range prof.Buckets {
		total += b.Support
		if b.Conf < 0 || b.Conf > 1 {
			t.Errorf("bucket %d conf %g out of range", i, b.Conf)
		}
		if b.Lo > b.Hi {
			t.Errorf("bucket %d inverted extremes [%g, %g]", i, b.Lo, b.Hi)
		}
		if i > 0 && b.Lo < prof.Buckets[i-1].Hi {
			t.Errorf("buckets %d and %d overlap", i-1, i)
		}
	}
	if total != prof.N {
		t.Errorf("bucket supports sum to %d, want %d", total, prof.N)
	}
	// The high-confidence cluster [100, 200] must show up: a bucket
	// centered inside it has high confidence (bucket edges may straddle
	// the cluster boundary slightly) while the background stays low.
	sawHot, sawCold := false, false
	for _, b := range prof.Buckets {
		mid := (b.Lo + b.Hi) / 2
		if mid >= 100 && mid <= 200 && b.Conf > 0.6 {
			sawHot = true
		}
		if b.Lo > 750 && b.Conf < 0.2 {
			sawCold = true
		}
	}
	if !sawHot || !sawCold {
		t.Errorf("planted structure not visible in profile (hot=%v cold=%v)", sawHot, sawCold)
	}
}

func TestProfileRender(t *testing.T) {
	rel := twoClusterRelation(t, 10000)
	prof, err := BuildProfile(rel, "X", "B", true, 10, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	prof.Render(&buf, 100, 200, true)
	out := buf.String()
	if !strings.Contains(out, "confidence of (B=yes) by X bucket") {
		t.Errorf("header missing: %s", out)
	}
	if !strings.Contains(out, "█") {
		t.Errorf("bars missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 11 { // header + 10 buckets
		t.Errorf("expected 11 lines, got %d", len(lines))
	}
	// Without highlight no ◆ marker appears.
	buf.Reset()
	prof.Render(&buf, 0, 0, false)
	if strings.Contains(buf.String(), "◆") {
		t.Errorf("unexpected highlight marker")
	}
}

func TestBuildProfileValidation(t *testing.T) {
	rel := twoClusterRelation(t, 100)
	if _, err := BuildProfile(rel, "Nope", "B", true, 10, Config{}); err == nil {
		t.Errorf("unknown numeric accepted")
	}
	if _, err := BuildProfile(rel, "X", "Nope", true, 10, Config{}); err == nil {
		t.Errorf("unknown objective accepted")
	}
	if _, err := BuildProfile(rel, "X", "B", true, 0, Config{}); err == nil {
		t.Errorf("zero buckets accepted")
	}
}

// TestProfileMatchesOracle pins Session.Profile and the one-shot
// BuildProfile to the pre-session profile pipeline across every storage
// backend, worker count, exact-domain setting (which profiles ignore),
// resolution and objective value. One session per configuration
// answers every profile, so repeats also exercise the shared cache.
func TestProfileMatchesOracle(t *testing.T) {
	for name, rel := range faultMatrixBackends(t, 3000) {
		for _, pes := range []int{1, 4} {
			for _, exact := range []int{0, 80} {
				cfg := Config{Seed: 7, SampleFactor: 10, PEs: pes, ExactDomainLimit: exact}
				sess, err := NewSession(rel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, numeric := range []string{"Age", "Balance"} {
					for _, buckets := range []int{1, 12, 400} {
						for _, value := range []bool{true, false} {
							id := fmt.Sprintf("%s/pes=%d/exact=%d/%s/M=%d/%v", name, pes, exact, numeric, buckets, value)
							want, err := legacyBuildProfile(rel, numeric, "CardLoan", value, buckets, cfg)
							if err != nil {
								t.Fatalf("%s: oracle: %v", id, err)
							}
							got, err := sess.Profile(numeric, "CardLoan", value, buckets)
							if err != nil {
								t.Fatalf("%s: session: %v", id, err)
							}
							requireDeepEqual(t, id+" session", got, want)
							oneShot, err := BuildProfile(rel, numeric, "CardLoan", value, buckets, cfg)
							if err != nil {
								t.Fatalf("%s: one-shot: %v", id, err)
							}
							requireDeepEqual(t, id+" one-shot", oneShot, want)
						}
					}
				}
			}
		}
	}
}

// TestSessionProfileScans pins the profile path's scan cost on one
// session: Mine pays the session's two scans, top-k at the same
// resolution is served from its statistics, a profile at a new
// resolution pays two scans, and repeating the profile pays none.
func TestSessionProfileScans(t *testing.T) {
	base, _ := bankRelation(t, 4000)
	counting := &relation.CountingRelation{R: base}
	s, err := NewSession(counting, Config{Buckets: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name  string
		run   func() error
		scans int
	}{
		{"Mine", func() error {
			_, _, err := s.Mine("Balance", "CardLoan", true, nil)
			return err
		}, 2},
		{"MineTopK", func() error {
			_, err := s.MineTopK("Balance", "CardLoan", true, OptimizedConfidence, 3)
			return err
		}, 0},
		{"Profile", func() error {
			_, err := s.Profile("Balance", "CardLoan", true, 25)
			return err
		}, 2},
		{"Profile again", func() error {
			_, err := s.Profile("Balance", "CardLoan", true, 25)
			return err
		}, 0},
	}
	for _, step := range steps {
		before := counting.Scans
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := counting.Scans - before; got != step.scans {
			t.Errorf("%s issued %d scans, want %d", step.name, got, step.scans)
		}
	}
}
