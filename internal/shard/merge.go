package shard

// merge.go is the gather side of scatter-gather: one drain goroutine per
// surviving shard forwards its shard cursor's blocks through a single
// fan-in channel to the merge cursor, which hands them on as they are.
// Transport is block-granular end to end — the ownership filter, root
// strip, and drain cap compact each block in place inside the drain, and
// the consumer never crosses a channel per row. (An earlier shape piped the
// fan-in channel through engine.NewGenerator, re-batching every row through
// a second goroutine and channel; at LUBM scale that double hop was the
// single largest term in the 18× sharded q2 regression.)

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
)

// drainSpan starts one per-shard drain span under the trace span carried by
// ctx, nil (and free) when the query is untraced. inline marks the
// single-survivor fast path, where the drain runs on the caller's goroutine
// instead of a fan-in worker.
func drainSpan(ctx context.Context, shard int, inline bool) *obs.Span {
	sp := obs.SpanFrom(ctx).Child("shard_drain")
	sp.SetAttr("shard", shard)
	if inline {
		sp.SetAttr("inline", true)
	}
	return sp
}

// gatherBuf is the fan-in channel depth in blocks: enough to keep shards
// busy while the consumer works through a block, small enough that an
// abandoned merge strands O(gatherBuf · engine.BlockRows) rows.
const gatherBuf = 8

// openFunc opens one shard's sub-query cursor under the merge's context —
// the fault-injection seam the chaos suite scripts against.
type openFunc func(context.Context) (engine.Cursor, error)

// gather is the Engine's scatter entry point: it opens sub on every
// surviving shard and returns the merged union cursor.
func (e *Engine) gather(ctx context.Context, vars []string, sub *query.BGP, shards []int, keep func(shard int, row []uint32) bool, strip bool, perShardCap int, rootIdx int, workers int) engine.BlockCursor {
	opens := make([]openFunc, len(shards))
	for i, sh := range shards {
		sh := sh
		opens[i] = func(sctx context.Context) (engine.Cursor, error) {
			return e.openShard(sctx, sh, sub, e.drainHints(sh, sub, rootIdx, perShardCap, workers))
		}
	}
	return gather(ctx, vars, shards, opens, keep, strip, perShardCap, e.part)
}

// gather builds the scatter-gather merge cursor: it opens one cursor per
// entry of opens concurrently (each under a shared child context), drains
// them into a fan-in channel, and streams the union in arrival order.
// shards[i] is the shard ID behind opens[i] (nil means opens[i] is shard
// i — the unpruned scatter and the chaos tests). keep, when non-nil, is
// the ownership filter (applied before strip and before the per-shard
// cap); strip drops the appended root column; perShardCap bounds the rows
// any one shard contributes (0 = unbounded). A failing shard cancels its
// siblings and surfaces its error; closing the merge cursor cancels every
// shard.
func gather(ctx context.Context, vars []string, shards []int, opens []openFunc, keep func(shard int, row []uint32) bool, strip bool, perShardCap int, part *Partitioned) engine.BlockCursor {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, scancel := context.WithCancel(ctx)
	m := &mergeCursor{
		vars:   vars,
		ctx:    ctx,
		cancel: scancel,
		blocks: make(chan engine.Block, gatherBuf),
		errs:   make(chan error, len(opens)),
	}
	var wg sync.WaitGroup
	for i := range opens {
		sh := i
		if shards != nil {
			sh = shards[i]
		}
		wg.Add(1)
		go func(sh int, open openFunc) {
			defer wg.Done()
			span := drainSpan(ctx, sh, false)
			// A panic in a shard cursor must not kill the process: it runs on
			// a drain goroutine where no handler-level recovery can reach it.
			// Convert it to a shard error so the merge fails the one query.
			err := func() (err error) {
				defer func() {
					if rec := recover(); rec != nil {
						err = fmt.Errorf("shard %d: drain panicked: %v", sh, rec)
					}
				}()
				return drainShard(obs.WithSpan(sctx, span), sh, open, keep, strip, perShardCap, part, m.blocks, span)
			}()
			if err != nil {
				span.SetAttr("error", err.Error())
				m.errs <- err
				scancel() // fail fast: stop sibling shards
			}
			span.End()
		}(sh, opens[i])
	}
	go func() {
		wg.Wait()
		close(m.blocks)
	}()
	return m
}

// mergeCursor is the consumer end of the fan-in channel: it forwards the
// drains' blocks. It owns the scatter's child context — Close cancels every
// drain and unblocks parked senders by draining the channel to close.
type mergeCursor struct {
	vars   []string
	ctx    context.Context // parent: attributes cancellation when no shard reported
	cancel context.CancelFunc
	blocks chan engine.Block
	errs   chan error

	done bool
	err  error
}

func (m *mergeCursor) Vars() []string { return m.vars }

func (m *mergeCursor) NextBlock(b *engine.Block) error {
	if m.done {
		b.Reset()
		return m.err
	}
	nb, ok := <-m.blocks
	if !ok {
		*b = engine.Block{}
		m.done = true
		select {
		case err := <-m.errs:
			m.err = err
		default:
			// A drainer parked on a send can exit on cancellation
			// without seeing its cursor's context error; report the
			// cause here.
			m.err = m.ctx.Err()
		}
		if m.err == nil {
			m.err = io.EOF
		}
		return m.err
	}
	*b = nb
	return nil
}

// Truncated is always false for the bare merge: caps are applied by the
// Limit wrapper above it.
func (m *mergeCursor) Truncated() bool { return false }

func (m *mergeCursor) Close() error {
	if m.done && m.err != nil {
		m.cancel()
		return nil
	}
	m.cancel()
	// Drain so drains parked on a full channel observe the cancel and exit;
	// the channel closes once every drain has.
	for range m.blocks {
	}
	m.done = true
	if m.err == nil {
		m.err = io.EOF
	}
	return nil
}

// shardFilter is what a scatter applies to one shard's blocks, in place:
// the ownership filter, the root strip, then the per-shard cap. Both the
// fan-in drains and the single-survivor fast path run it.
type shardFilter struct {
	keep  func(row []uint32) bool // nil keeps every row
	strip bool
	cap   int // rows this shard may deliver; 0 = unbounded

	delivered int
}

func newShardFilter(shard int, keep func(int, []uint32) bool, strip bool, perShardCap int) shardFilter {
	f := shardFilter{strip: strip, cap: perShardCap}
	if keep != nil {
		f.keep = func(row []uint32) bool { return keep(shard, row) }
	}
	return f
}

// apply filters b and reports whether the shard has hit its cap (b then
// holds the last rows it may deliver).
func (f *shardFilter) apply(b *engine.Block) (capped bool) {
	if f.keep != nil {
		b.Filter(f.keep)
	}
	if f.strip {
		b.DropLastColumn()
	}
	if f.cap > 0 && f.delivered+b.Len() >= f.cap {
		b.Truncate(f.cap - f.delivered)
		capped = true
	}
	f.delivered += b.Len()
	return capped
}

// drainShard opens and drains one shard's cursor into the fan-in channel a
// block at a time, applying the ownership filter, root stripping, and the
// per-shard cap in place. Blocks delivered before a cursor error stand
// (mirroring the generator's contract). span, when non-nil, collects the
// drain's row/block counters; all observation is block-granular, so the
// per-row loop stays free of atomics and locks.
func drainShard(ctx context.Context, shard int, open openFunc, keep func(int, []uint32) bool, strip bool, perShardCap int, part *Partitioned, out chan<- engine.Block, span *obs.Span) error {
	cur, err := open(ctx)
	if err != nil {
		return err
	}
	defer cur.Close()
	f := newShardFilter(shard, keep, strip, perShardCap)
	for {
		// Each block goes to the consumer for good, so every pull starts
		// from a fresh one.
		var blk engine.Block
		if err := cur.NextBlock(&blk); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		capped := f.apply(&blk)
		if blk.Len() > 0 {
			select {
			case out <- blk:
			case <-ctx.Done():
				// Cancelled by a sibling's failure, the merge closing, or
				// the caller's context; the merge cursor reports the cause.
				return nil
			}
			if part != nil {
				part.delivered[shard].Add(int64(blk.Len()))
				part.batchRows.Observe(float64(blk.Len()))
			}
			span.AddBatch(blk.Len())
		}
		if capped {
			return nil
		}
	}
}

// filterCursor is the single-survivor fast path: when statistics pruned the
// scatter down to one shard there is nothing to merge, so the ownership
// filter, root strip, drain cap, and delivered counter are applied inline
// on the caller's goroutine — no channel, no drain goroutine.
type filterCursor struct {
	inner engine.BlockCursor
	vars  []string
	f     shardFilter
	shard int
	part  *Partitioned
	span  *obs.Span

	done bool
	err  error
}

func newFilter(inner engine.BlockCursor, vars []string, shard int, keep func(int, []uint32) bool, strip bool, perShardCap int, part *Partitioned, span *obs.Span) engine.BlockCursor {
	return &filterCursor{
		inner: inner,
		vars:  vars,
		f:     newShardFilter(shard, keep, strip, perShardCap),
		shard: shard,
		part:  part,
		span:  span,
	}
}

func (f *filterCursor) Vars() []string { return f.vars }

func (f *filterCursor) NextBlock(b *engine.Block) error {
	for !f.done {
		if err := f.inner.NextBlock(b); err != nil {
			f.finish(err)
			break
		}
		capped := f.f.apply(b)
		if n := int64(b.Len()); n > 0 {
			if f.part != nil {
				f.part.delivered[f.shard].Add(n)
			}
			f.span.AddRows(n)
		}
		if capped {
			f.finish(io.EOF)
		}
		if b.Len() > 0 {
			return nil
		}
	}
	b.Reset()
	return f.err
}

func (f *filterCursor) finish(err error) {
	f.done = true
	f.err = err
	f.span.End()
}

func (f *filterCursor) Truncated() bool { return f.inner.Truncated() }
func (f *filterCursor) Close() error    { return f.inner.Close() }
