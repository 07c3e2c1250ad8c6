package exec

import "sync/atomic"

// SetMaxMarkWords sets the cap on the tail's bitmap, so that a test graph's
// leaves can exceed it, and returns a func restoring the old cap.
func SetMaxMarkWords(n int) (restore func()) {
	old := maxMarkWords
	maxMarkWords = n
	return func() { maxMarkWords = old }
}

// CountTails makes every join, on any goroutine, count its passes through
// the fused tail by shape: how many of the last attribute's inputs are
// fixed across the pass (F) and how many vary (V, 0 or 1). It returns a
// func reading the count for one shape (fixed < 0 sums every shape) and one
// restoring the old hook.
func CountTails() (count func(fixed, varying int) int64, restore func()) {
	var n [8][2]atomic.Int64
	old := tailHook
	tailHook = func(fixed, varying int) { n[min(fixed, 7)][varying].Add(1) }
	count = func(fixed, varying int) int64 {
		if fixed >= 0 {
			return n[fixed][varying].Load()
		}
		var sum int64
		for i := range n {
			sum += n[i][0].Load() + n[i][1].Load()
		}
		return sum
	}
	return count, func() { tailHook = old }
}

// RaceEnabled reports that the race detector is on, under which allocation
// counts mean nothing.
const RaceEnabled = raceEnabled
