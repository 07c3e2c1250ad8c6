//go:build race

package store

// raceEnabled reports that the race detector is on, under which allocation
// totals mean nothing.
const raceEnabled = true
