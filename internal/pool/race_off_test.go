//go:build !race

package pool

const raceEnabled = false
