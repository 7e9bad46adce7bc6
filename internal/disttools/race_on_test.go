//go:build race

package disttools

// raceEnabled reports that the race detector is on: sync.Pool drops a
// share of its Puts there, so allocation pins on pooled paths do not hold.
const raceEnabled = true
