//go:build !race

package bucketing

const raceEnabled = false
