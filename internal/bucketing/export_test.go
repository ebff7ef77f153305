package bucketing

// Fixtures shared with the external bucketing_test package, whose
// tests drive the engine's counting executor (internal/plan imports
// this package, so they cannot live in package bucketing).
var (
	UniformRelation = uniformRelation
	MultiRelation   = multiRelation
	PushdownFixture = pushdownFixture
)
