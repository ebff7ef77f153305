package miner

import "optrule/internal/relation"

// MineConjunctive mines the fully general rule form of Section 4.3:
//
//	(A ∈ [v1, v2]) ∧ C1 ⇒ C2
//
// where BOTH the presumptive condition C1 (conditions) and the
// objective condition C2 (objectives) are conjunctions of primitive
// Boolean conditions. Per the paper's recipe, u_i counts tuples in
// bucket i meeting C1 and v_i counts tuples meeting C1 ∧ C2; this is
// realized with two counting scans sharing one set of boundaries.
// Returns the optimized-support and optimized-confidence rules (either
// may be nil).
func MineConjunctive(rel relation.Relation, numeric string, objectives []Condition,
	conditions []Condition, cfg Config) (supportRule, confidenceRule *Rule, err error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.MineConjunctive(numeric, objectives, conditions)
}
