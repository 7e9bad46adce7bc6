//go:build race

package client

// raceEnabled reports that the race detector is on: sync.Pool drops a
// share of its Puts there, so byte pins on pooled paths do not hold.
const raceEnabled = true
