//go:build !race

package bdb

const raceEnabled = false
