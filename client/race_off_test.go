//go:build !race

package client

const raceEnabled = false
