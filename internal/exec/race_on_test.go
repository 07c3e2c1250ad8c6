//go:build race

package exec

// raceEnabled reports that the race detector is on, under which allocation
// counts mean nothing.
const raceEnabled = true
