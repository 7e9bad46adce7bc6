//go:build race

package server

// raceEnabled reports that the race detector is on: its instrumentation
// allocates and sync.Pool drops a share of Puts, so allocation pins do not
// hold.
const raceEnabled = true
