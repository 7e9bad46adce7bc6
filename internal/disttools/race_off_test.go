//go:build !race

package disttools

const raceEnabled = false
