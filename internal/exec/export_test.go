package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/set"
)

// WithPolicy returns a copy of p that runs with the set layout policy pol,
// for tests that run one plan under several layouts.
func WithPolicy(p *plan.Plan, pol set.Policy) *plan.Plan {
	c := *p
	c.Policy = pol
	return &c
}

// TrackMaterialized makes every execution, on any goroutine, record each
// node whose result a join builds rather than views. It returns a func
// reading the nodes recorded so far and one restoring the old hook.
func TrackMaterialized() (nodes func() []*plan.Node, restore func()) {
	var mu sync.Mutex
	var seen []*plan.Node
	old := materializeHook
	materializeHook = func(n *plan.Node) {
		mu.Lock()
		seen = append(seen, n)
		mu.Unlock()
	}
	nodes = func() []*plan.Node {
		mu.Lock()
		defer mu.Unlock()
		return append([]*plan.Node(nil), seen...)
	}
	return nodes, func() { materializeHook = old }
}

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
