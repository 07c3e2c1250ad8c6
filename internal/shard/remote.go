package shard

// remote.go is the cross-process seam of scatter-gather: when a
// RemoteOpener is installed, every per-shard sub-query open routes through
// it instead of the in-process shard engine. The planner, ownership filter,
// merge fan-in, DISTINCT handling, and caps above this seam are unchanged —
// a remote cursor is just an engine.Cursor whose rows happen to cross the
// network — so the cluster coordinator (internal/cluster) reuses the entire
// scatter plan machinery and adds only transport, retries, and failover
// underneath it.

import (
	"context"

	"repro/internal/engine"
	"repro/internal/query"
)

// RemoteHints carries the per-drain execution hints the coordinator pushes
// down to a worker alongside the sub-query text.
type RemoteHints struct {
	// Owner, when >= 0, asks the worker to apply the ownership filter
	// before shipping: keep only rows whose root column hashes to shard
	// Owner. Moving the filter worker-side saves shipping rows the
	// coordinator would drop anyway; the coordinator's own keep filter
	// stays in place as an idempotent backstop.
	Owner int
	// RootIdx locates the root column in Sub.Select when Owner >= 0.
	RootIdx int
	// Cap bounds the kept rows the worker ships (0 = unbounded) — the
	// per-shard row-cap hint, counted after the ownership filter.
	Cap int
	// Workers is the sub-query's intra-shard parallelism hint. Remote
	// drains force 0: resume-on-retry needs a deterministic enumeration
	// order, which parallel shard-local execution does not guarantee.
	Workers int
	// SinglePattern marks a one-triple-pattern sub-query, whose rows are
	// individual triples — the precondition for answering from object-side
	// replicas when the owner shard is down past the retry budget.
	SinglePattern bool
}

// RemoteOpener opens one shard's sub-query on whatever process holds that
// shard. Implementations own transport, retries, hedging, and failover; the
// returned cursor must behave like any engine.Cursor (rows until io.EOF,
// Close idempotent and cancelling any in-flight work).
type RemoteOpener interface {
	OpenShard(ctx context.Context, shard int, sub *query.BGP, h RemoteHints) (engine.Cursor, error)
}

// SetRemote installs (or, with nil, removes) the remote opener. Call before
// serving; the engine does not synchronize the swap against in-flight opens.
func (e *Engine) SetRemote(r RemoteOpener) { e.remote = r }

// drainHints builds the hints for an ownership-filtered shard drain.
func (e *Engine) drainHints(sh int, sub *query.BGP, rootIdx, perShardCap, workers int) RemoteHints {
	return RemoteHints{
		Owner:         sh,
		RootIdx:       rootIdx,
		Cap:           perShardCap,
		Workers:       workers,
		SinglePattern: len(sub.Patterns) == 1,
	}
}

// openShard opens one shard's sub-query through the remote seam when one is
// installed, else on the in-process shard engine.
func (e *Engine) openShard(ctx context.Context, sh int, sub *query.BGP, h RemoteHints) (engine.Cursor, error) {
	if e.remote != nil {
		return e.remote.OpenShard(ctx, sh, sub, h)
	}
	return e.engs[sh].Open(sub, engine.ExecOpts{Ctx: ctx, Workers: h.Workers})
}
