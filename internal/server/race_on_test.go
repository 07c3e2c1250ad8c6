//go:build race

package server

// raceEnabled reports that the race detector is on, under which allocation
// counts mean nothing.
const raceEnabled = true
