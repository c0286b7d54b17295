//go:build !race

package stap

const raceEnabled = false
