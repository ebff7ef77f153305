package optrule

import (
	"io"

	"optrule/internal/miner"
)

// Profile is the per-bucket confidence landscape of one (numeric,
// Boolean) attribute pair, for inspection and plotting.
type Profile = miner.Profile

// ProfileBucket is one bucket of a Profile.
type ProfileBucket = miner.ProfileBucket

// Verification holds the exactly recomputed statistics of a rule.
type Verification = miner.Verification

// BuildProfile computes the confidence-by-bucket profile of one
// attribute pair with the given display resolution, on a throwaway
// session (Session.Profile serves profiles from a session's cache).
func BuildProfile(rel Relation, numeric, objective string, value bool, buckets int, cfg Config) (*Profile, error) {
	return miner.BuildProfile(rel, numeric, objective, value, buckets, cfg)
}

// RenderProfile writes an ASCII bar chart of a profile to w, optionally
// highlighting the buckets covered by a rule's range.
func RenderProfile(w io.Writer, p *Profile, rule *Rule) {
	if rule != nil {
		p.Render(w, rule.Low, rule.High, true)
		return
	}
	p.Render(w, 0, 0, false)
}

// Verify rescans the relation and recomputes a mined rule's support,
// confidence, and baseline exactly. Mining is bucket-approximate
// (within the §3.4 bounds); Verify is exact, so audited numbers can be
// reported next to each discovered rule. Pass the same conditions used
// at mining time, if any.
func Verify(rel Relation, rule Rule, conds []Condition) (Verification, error) {
	return miner.Verify(rel, rule, conds)
}

// MineValues mines both optimized rules directly from parallel slices
// without constructing a relation: values[i] is the numeric attribute
// of tuple i and hits[i] whether it meets the objective. Rules are
// exact (finest buckets). If values is already sorted, no sorting
// happens and the computation is linear — the paper's headline
// complexity for sorted data.
func MineValues(values []float64, hits []bool, minSupport, minConfidence float64,
	numericName, objectiveName string) (supportRule, confidenceRule *Rule, err error) {
	return miner.MineValues(values, hits, minSupport, minConfidence, numericName, objectiveName)
}
