//go:build !race

package miner

const raceEnabled = false
