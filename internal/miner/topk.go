package miner

import "optrule/internal/relation"

// MineTopK mines up to k pairwise-disjoint optimized ranges for one
// (numeric, Boolean) attribute pair — the ranked list of clusters a
// campaign planner works through after the single optimal range. kind
// selects the optimization: OptimizedConfidence returns disjoint ranges
// in decreasing confidence, each with support >= cfg.MinSupport;
// OptimizedSupport returns them in decreasing support, each with
// confidence >= cfg.MinConfidence. Each range is optimal within the
// segment left after removing the better ranges.
func MineTopK(rel relation.Relation, numeric, objective string, objectiveValue bool,
	kind RuleKind, k int, cfg Config) ([]Rule, error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, err
	}
	return s.MineTopK(numeric, objective, objectiveValue, kind, k)
}
