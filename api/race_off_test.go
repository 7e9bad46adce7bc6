//go:build !race

package api

const raceEnabled = false
