//go:build race

package bucketing

// raceEnabled reports a -race build, whose instrumentation makes
// allocation counts unstable.
const raceEnabled = true
