//go:build race

package api

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation pins do not hold.
const raceEnabled = true
