package miner

import (
	"context"
	"fmt"
	"io"
	"strings"

	"optrule/internal/plan"
	"optrule/internal/relation"
)

// Profile is the per-bucket confidence landscape of one (numeric,
// Boolean) attribute pair — the picture a user looks at to judge why an
// optimized rule selected the range it did.
type Profile struct {
	Numeric, Objective string
	ObjectiveValue     bool
	// Buckets are in driver order; Lo/Hi are observed value extremes,
	// Support the tuple count, Conf the objective rate within the bucket.
	Buckets []ProfileBucket
	// Overall is the objective rate over all tuples.
	Overall float64
	N       int
}

// ProfileBucket is one bucket of a Profile.
type ProfileBucket struct {
	Lo, Hi  float64
	Support int
	Conf    float64
}

// BuildProfile computes a Profile with the given number of buckets
// (coarser than mining resolution, intended for display). Thin wrapper
// over a throwaway Session; see Session.Profile.
func BuildProfile(rel relation.Relation, numeric, objective string, objectiveValue bool,
	buckets int, cfg Config) (*Profile, error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, err
	}
	return s.Profile(numeric, objective, objectiveValue, buckets)
}

// Profile computes the per-bucket confidence landscape of one
// (numeric, Boolean) attribute pair at the given bucket count from the
// session's statistics: the first profile at a resolution costs the
// session's two scans, a repeat none. Profiles bucket with the sampled
// equi-depth boundaries (Config.ExactDomainLimit does not apply), so
// they share statistics with rule, top-k and average queries at the
// same resolution.
func (s *Session) Profile(numeric, objective string, objectiveValue bool, buckets int) (*Profile, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("miner: profile bucket count %d must be positive", buckets)
	}
	d := s.d
	d.ExactDomainLimit = 0
	q := Query{Op: OpRules, Numeric: numeric, Objective: objective,
		ObjectiveValue: objectiveValue, Buckets: buckets, Kinds: []RuleKind{}}
	var p *Profile
	answers, err := s.execute(context.Background(), d, []Query{q},
		func(a *Answer, r *plan.Resolved, set *plan.StatsSet) {
			p, a.Err = s.extractProfile(r, set)
		})
	if err != nil {
		return nil, err
	}
	if answers[0].Err != nil {
		return nil, answers[0].Err
	}
	return p, nil
}

// extractProfile reads one profile off the cached group.
func (s *Session) extractProfile(r *plan.Resolved, set *plan.StatsSet) (*Profile, error) {
	st, rows, err := s.group(set, r.Keys[0])
	if err != nil {
		return nil, err
	}
	row, ok := st.V[r.Objs[0]]
	if !ok {
		return nil, fmt.Errorf("miner: objective row %+v missing from cached group", r.Objs[0])
	}
	compact, keep, err := compacted(rows)
	if err != nil {
		return nil, err
	}
	schema := s.rel.Schema()
	p := &Profile{
		Numeric:        schema[r.Drivers[0]].Name,
		Objective:      schema[r.Objs[0].Attr].Name,
		ObjectiveValue: r.Objs[0].Want,
		N:              compact.N,
	}
	hits := 0
	for j := 0; j < compact.M; j++ {
		v := row[j]
		if keep != nil {
			v = row[keep[j]]
		}
		hits += v
		p.Buckets = append(p.Buckets, ProfileBucket{
			Lo:      compact.MinVal[j],
			Hi:      compact.MaxVal[j],
			Support: compact.U[j],
			Conf:    float64(v) / float64(compact.U[j]),
		})
	}
	p.Overall = float64(hits) / float64(compact.N)
	return p, nil
}

// Render writes an ASCII bar chart of the profile, marking buckets
// covered by the optional highlight range [lo, hi] with '◆'.
func (p *Profile) Render(w io.Writer, highlightLo, highlightHi float64, highlight bool) {
	val := "yes"
	if !p.ObjectiveValue {
		val = "no"
	}
	fmt.Fprintf(w, "confidence of (%s=%s) by %s bucket (overall %.1f%%, %d tuples)\n",
		p.Objective, val, p.Numeric, 100*p.Overall, p.N)
	const width = 40
	for _, b := range p.Buckets {
		bar := int(b.Conf*width + 0.5)
		if bar > width {
			bar = width
		}
		mark := " "
		if highlight && b.Lo >= highlightLo && b.Hi <= highlightHi {
			mark = "◆"
		}
		fmt.Fprintf(w, "%s [%12.5g, %12.5g] %6.1f%% |%-*s| n=%d\n",
			mark, b.Lo, b.Hi, 100*b.Conf, width, strings.Repeat("█", bar), b.Support)
	}
}
