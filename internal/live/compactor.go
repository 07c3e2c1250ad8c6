package live

import (
	"context"
	"time"
)

// CompactPolicy parameterizes the background compactor.
type CompactPolicy struct {
	// Every is how often the compactor checks the delta. Required > 0.
	Every time.Duration
	// MinOps compacts only when the delta holds at least this many netted
	// operations (inserts + tombstones); values <= 1 compact on any
	// non-empty delta.
	MinOps int
	// OnError, when set, observes compaction/persistence failures; the loop
	// keeps running either way.
	OnError func(error)
}

// AutoCompact runs the background compactor until ctx is done: every tick
// it drains a big-enough delta into a fresh base and swaps it in under the
// next epoch (on a durable store, Compact also persists it). It blocks; run
// it on its own goroutine. Serving is never paused — the swap is one atomic
// pointer store and in-flight cursors keep their pinned epoch.
func (ls *Store) AutoCompact(ctx context.Context, pol CompactPolicy) {
	if pol.Every <= 0 {
		pol.Every = 30 * time.Second
	}
	tick := time.NewTicker(pol.Every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		ins, del := ls.DeltaSize()
		if n := ins + del; n == 0 || n < pol.MinOps {
			continue
		}
		if _, err := ls.Compact(); err != nil && pol.OnError != nil {
			pol.OnError(err)
		}
	}
}
