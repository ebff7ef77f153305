//go:build race

package miner

// raceEnabled reports a -race build: sync.Pool then drops a random
// share of the items put back, so allocation counts are not stable.
const raceEnabled = true
