package cluster

// drain.go is the robust shard drain: the engine.Cursor the coordinator
// hands the merge layer for one shard's sub-query. Beneath the cursor
// surface it runs a small state machine:
//
//	establish   pick a health-admitted candidate (primary first, replicas
//	            on failover), backoff-with-jitter between attempts, hedge
//	            the first byte, verify the worker epoch
//	stream      decode frames; every delivered row advances the resume
//	            offset, so a broken stream re-establishes with
//	            skip=delivered and each row reaches the merge exactly once
//	degrade     budget exhausted: single-pattern groups re-drain the
//	            surviving shards for the lost shard's object-side replicas;
//	            otherwise (or additionally) the Partial sink is marked and
//	            the stream ends cleanly instead of failing the query
//
// Exactly-once rests on two worker guarantees: sub-queries execute with
// Workers=0 (deterministic enumeration order) and the skip offset counts
// kept rows after the ownership filter. An epoch change between attempts
// breaks the determinism assumption, so a mid-drain epoch mismatch is a
// hard error rather than a silent wrong answer.

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
)

// drainReq is the immutable description of one shard drain.
type drainReq struct {
	shard         int
	text          string
	vars          []string
	engine        string
	owner         int
	rootIdx       int
	cap           int
	singlePattern bool
	numShards     int
}

// drain phases.
const (
	phasePrimary = iota
	phaseReplica
)

// errShardUnavailable reports a shard whose every candidate worker is down
// past the retry budget, with no degradation sink installed to absorb it.
type errShardUnavailable struct {
	shard int
	cause error
}

func (e errShardUnavailable) Error() string {
	return fmt.Sprintf("cluster: shard %d unavailable after retry budget: %v", e.shard, e.cause)
}
func (e errShardUnavailable) Unwrap() error { return e.cause }

// remoteDrain implements engine.Cursor over the state machine above.
type remoteDrain struct {
	c   *Coordinator
	ctx context.Context
	req drainReq

	cur       *frameCursor
	epoch     uint64
	haveEpoch bool

	// attempts and delivered reset per sub-drain (the primary drain, then
	// each replica shard's recovery drain is its own resume domain).
	attempts  int
	delivered int

	phase       int
	replicaIdx  int
	replicaShs  []int
	degradeMode string

	done bool
	err  error
}

func newRemoteDrain(ctx context.Context, c *Coordinator, req drainReq) *remoteDrain {
	if ctx == nil {
		ctx = context.Background()
	}
	return &remoteDrain{c: c, ctx: ctx, req: req}
}

func (d *remoteDrain) Vars() []string { return d.req.vars }

// Truncated is always false: caps are enforced by the merge layer above.
func (d *remoteDrain) Truncated() bool { return false }

func (d *remoteDrain) Close() error {
	if d.cur != nil {
		d.cur.close()
		d.cur = nil
	}
	if !d.done {
		d.done = true
		d.err = io.EOF
	}
	return nil
}

// NextBlock goes through the shared per-row adapter: frames arrive row by
// row off the wire, and Next is where resume accounting lives. (Making a
// frame payload be the block is the follow-up.)
func (d *remoteDrain) NextBlock(b *engine.Block) error { return engine.FillBlock(b, d.Next) }

func (d *remoteDrain) Next() ([]uint32, error) {
	if d.done {
		return nil, d.err
	}
	for {
		if d.cur == nil {
			if err := d.establish(); err != nil {
				return d.degradeOrFail(err)
			}
		}
		row, err := d.cur.next()
		if err == nil {
			d.delivered++
			return row, nil
		}
		d.cur.close()
		d.cur = nil
		if err == io.EOF {
			if d.phase == phaseReplica && d.advanceReplica() {
				continue
			}
			return d.finish(io.EOF)
		}
		if isRetryable(err) {
			// Mid-stream break: loop back to establish, which resumes at
			// skip=delivered (or degrades once the budget is spent).
			continue
		}
		return d.finish(err)
	}
}

func (d *remoteDrain) finish(err error) ([]uint32, error) {
	d.done = true
	d.err = err
	if d.err == nil {
		d.err = io.EOF
	}
	if d.cur != nil {
		d.cur.close()
		d.cur = nil
	}
	return nil, d.err
}

// targetShard is the shard the current phase drains.
func (d *remoteDrain) targetShard() int {
	if d.phase == phaseReplica {
		return d.replicaShs[d.replicaIdx]
	}
	return d.req.shard
}

// establish opens a stream for the current phase's target shard, spending
// the attempt budget across health-admitted candidates with backoff and
// hedging. On success d.cur is set.
func (d *remoteDrain) establish() error {
	pol := d.c.policy
	var lastErr error
	for d.attempts < pol.MaxAttempts {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		if d.attempts > 0 {
			d.c.met.retries.Add(1)
			if !sleepCtx(d.ctx, pol.Backoff(d.attempts, d.c.jitter)) {
				return d.ctx.Err()
			}
		}
		primary, backup, failover := d.pickWorkers()
		if primary == nil {
			break
		}
		d.attempts++
		cur, err := d.c.attempt(d.ctx, primary, backup, d.req, d.targetShard(), d.delivered)
		if err != nil {
			lastErr = err
			if !isRetryable(err) {
				return err
			}
			continue
		}
		if err := d.checkEpoch(cur); err != nil {
			cur.close()
			return err
		}
		if failover {
			d.c.met.failovers.Add(1)
		}
		d.cur = cur
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no admitted candidate workers")
	}
	return errShardUnavailable{shard: d.targetShard(), cause: lastErr}
}

// pickWorkers chooses the attempt's worker and its hedge backup among the
// target shard's candidates: rotate by attempt number, skip workers whose
// breakers reject, fall back to the rotation order when every breaker is
// open (a fully-down fleet should still spend its budget probing rather
// than give up instantly). failover reports a non-primary pick.
func (d *remoteDrain) pickWorkers() (primary, backup *worker, failover bool) {
	cands := d.c.candidates(d.targetShard())
	var admitted []*worker
	admittedFirst := -1
	for i := 0; i < len(cands); i++ {
		w := cands[(d.attempts+i)%len(cands)]
		if w.br.Allow() {
			admitted = append(admitted, w)
			if admittedFirst == -1 {
				admittedFirst = (d.attempts + i) % len(cands)
			}
		}
	}
	if len(admitted) == 0 {
		if d.attempts >= len(cands) {
			// Every candidate rejected and each has been tried at least
			// once this drain: unavailable.
			return nil, nil, false
		}
		return cands[d.attempts%len(cands)], nil, d.attempts%len(cands) != 0
	}
	primary = admitted[0]
	if len(admitted) > 1 {
		backup = admitted[1]
	}
	return primary, backup, admittedFirst != 0
}

// checkEpoch enforces cross-attempt epoch consistency: resuming mid-drain
// against a different epoch would splice rows from two different dataset
// versions (and break the deterministic-order resume), so it fails hard.
// Before any row is delivered a new epoch is simply adopted.
func (d *remoteDrain) checkEpoch(cur *frameCursor) error {
	if !d.haveEpoch {
		d.epoch, d.haveEpoch = cur.epoch, true
		return nil
	}
	if cur.epoch == d.epoch {
		return nil
	}
	if d.delivered == 0 {
		d.epoch = cur.epoch
		return nil
	}
	return fmt.Errorf("cluster: shard %d: worker epoch changed mid-drain (%d -> %d); cannot resume exactly",
		d.targetShard(), d.epoch, cur.epoch)
}

// degradeOrFail handles an establish failure: walk down the degradation
// ladder when a Partial sink is installed, fail the drain otherwise.
func (d *remoteDrain) degradeOrFail(cause error) ([]uint32, error) {
	if d.ctx.Err() != nil {
		return d.finish(d.ctx.Err())
	}
	sink := PartialFrom(d.ctx)
	if sink == nil {
		return d.finish(cause)
	}
	if d.phase == phaseReplica {
		// A recovery drain's shard is itself unreachable: skip it — the
		// result is already flagged — and try the rest.
		d.c.log.Warn("cluster: replica recovery shard unreachable",
			"shard", d.targetShard(), "error", cause)
		if d.advanceReplica() {
			return d.nextAfterDegrade()
		}
		return d.finish(io.EOF)
	}
	if d.req.singlePattern && d.req.numShards > 1 && !d.c.cfg.DisableReplicaRecovery {
		// Single-pattern group: its rows are individual triples, and the
		// partitioner replicated each one on its object's shard. Re-drain
		// every surviving shard with the original ownership filter — only
		// the lost shard's rows come back. Triples whose subject and object
		// both hash to the lost shard have no replica, so the result stays
		// flagged partial even though it is usually complete.
		d.c.met.replicaRecoveries.Add(1)
		d.c.met.partials.Add(1)
		sink.record(d.req.shard, DegradeReplicas)
		d.c.log.Warn("cluster: shard unreachable; answering from object-side replicas",
			"shard", d.req.shard, "error", cause)
		d.phase = phaseReplica
		d.replicaShs = d.replicaShs[:0]
		for sh := 0; sh < d.req.numShards; sh++ {
			if sh != d.req.shard {
				d.replicaShs = append(d.replicaShs, sh)
			}
		}
		d.replicaIdx = 0
		d.attempts = 0
		d.delivered = 0
		return d.nextAfterDegrade()
	}
	d.c.met.partials.Add(1)
	sink.record(d.req.shard, DegradeLost)
	d.c.log.Warn("cluster: shard unreachable; returning partial results",
		"shard", d.req.shard, "error", cause)
	return d.finish(io.EOF)
}

// nextAfterDegrade resumes the Next loop after the ladder moved to a new
// target shard.
func (d *remoteDrain) nextAfterDegrade() ([]uint32, error) {
	return d.Next()
}

// advanceReplica moves to the next surviving shard's recovery drain,
// resetting the per-sub-drain resume state.
func (d *remoteDrain) advanceReplica() bool {
	d.replicaIdx++
	d.attempts = 0
	d.delivered = 0
	return d.replicaIdx < len(d.replicaShs)
}

// sleepCtx sleeps d or until ctx is done; reports whether the full sleep
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
