//go:build race

package pool

// raceEnabled reports that the race detector is on: sync.Pool drops a
// share of its Puts there, so an allocation pin on a pooled path does not
// hold.
const raceEnabled = true
