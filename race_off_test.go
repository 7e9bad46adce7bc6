//go:build !race

package ccsp

const raceEnabled = false
