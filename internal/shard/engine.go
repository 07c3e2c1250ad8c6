package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

// Engine executes queries by scatter-gather over the shards of a
// Partitioned dataset. It implements the repository-wide engine.Engine
// contract — Open(q, ExecOpts) → Cursor — by compiling each query into a
// cached scatter plan (root-group decomposition, statistics-pruned shard
// targets, probe-side choice; see qplan.go), opening one cursor per
// surviving shard concurrently, and streaming their merged rows:
// cancellation, DISTINCT deduplication, Offset, and the exact MaxRows cap
// are all enforced once at the merge cursor, with row caps propagated down
// to the shard drains as per-shard hints. A query the cost model says
// would lose by scattering runs unchanged on one engine over the unsharded
// parent store instead.
type Engine struct {
	part  *Partitioned
	base  string
	engs  []engine.Engine
	build func(*store.Store) (engine.Engine, error)

	// local is the engine over the unsharded parent store that declined
	// plans run on, built on first use (see localEngine).
	localOnce sync.Once
	local     engine.Engine
	localErr  error

	// qplans caches compiled scatter plans per query pointer (see planFor);
	// the server's plan cache interns normalized queries to stable pointers,
	// so repeated requests hit here and skip all per-shard planning.
	planMu sync.Mutex
	qplans map[*query.BGP]*queryPlan

	// noPrune disables statistics pruning — the property-test oracle proving
	// pruned and unpruned scatter agree. noDecline forces every plan to
	// scatter, so the scatter path stays tested on fixtures the cost model
	// would run unsharded. Never set in production paths.
	noPrune   bool
	noDecline bool

	// remote, when set, routes every per-shard sub-query open across the
	// process boundary (see remote.go). Planning still runs locally against
	// the partition's statistics; only execution fans out.
	remote RemoteOpener
}

// NewEngine builds one instance of a base engine over every shard of p
// (via build, typically the engine registry) and returns the scatter-gather
// wrapper. Construction cost is the base engine's, once per shard — over
// smaller inputs, so eager index builds (rdf3x's six permutation sorts)
// also parallelize across shards in wall-clock terms when the caller
// shards a large dataset. A compiling engine ("emptyheaded", "auto",
// "logicblox") compiles each shard's sub-queries against that shard's own
// statistics. build is kept to construct the engine over p's parent store
// the first time a query declines to scatter.
func NewEngine(p *Partitioned, name string, build func(*store.Store) (engine.Engine, error)) (*Engine, error) {
	engs := make([]engine.Engine, p.NumShards())
	for i := range engs {
		e, err := build(p.Shard(i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		engs[i] = e
	}
	return &Engine{
		part:   p,
		base:   name,
		engs:   engs,
		build:  build,
		qplans: map[*query.BGP]*queryPlan{},
	}, nil
}

// localEngine returns the engine over the unsharded parent store, building
// it on first use. The Engine lives for one epoch, so this is once per
// epoch; a server whose queries all scatter never builds it.
func (e *Engine) localEngine() (engine.Engine, error) {
	e.localOnce.Do(func() { e.local, e.localErr = e.build(e.part.base) })
	return e.local, e.localErr
}

// Name identifies the engine and its shard count in benchmark output.
func (e *Engine) Name() string {
	return e.base + "[shards=" + strconv.Itoa(len(e.engs)) + "]"
}

// ShardEngine returns shard i's engine instance (every shard runs the same
// engine type). Callers use it to inspect the underlying engine's
// capabilities — e.g. whether it honours ExecOpts.Workers, which the
// wrapper forwards to every shard.
func (e *Engine) ShardEngine(i int) engine.Engine { return e.engs[i] }

// Open starts the sharded execution of q under its cached scatter plan. A
// single root-covered group scatters to the plan's surviving shards and
// streams the merged union; multiple groups additionally join their
// streams at the merge layer. A declined plan opens q, with opts as given,
// on the engine over the unsharded parent store.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Err(); err != nil {
		return nil, err
	}
	if len(e.engs) == 1 {
		// One shard is the whole dataset: pass straight through.
		if e.remote != nil {
			cur, err := e.openShard(opts.Ctx, 0, q, RemoteHints{Owner: -1, SinglePattern: len(q.Patterns) == 1})
			if err != nil {
				return nil, err
			}
			cur, err = e.counting(0, cur, err)
			if err != nil {
				return nil, err
			}
			return engine.Limit(cur, opts.Offset, opts.MaxRows), nil
		}
		cur, err := e.engs[0].Open(q, opts)
		return e.counting(0, cur, err)
	}
	qp := e.planFor(q)
	if sp := obs.SpanFrom(opts.Ctx); sp != nil && qp.explain != nil {
		// Annotate the caller's execution span with the scatter shape: the
		// trace's "which shards did this query touch, which did statistics
		// skip" answer. Untraced queries skip this block on the nil check.
		sp.SetAttr("scatter_plan", qp.explain.Kind)
		sp.SetAttr("shards_total", qp.explain.Shards)
		if qp.local {
			// No shard is touched; the two prices say why.
			sp.SetAttr("local_cost", qp.explain.LocalCost)
			sp.SetAttr("scatter_cost", qp.explain.ScatterCost)
		} else {
			sp.SetAttr("target_shards", qp.explain.TargetShards())
			sp.SetAttr("pruned_shards", qp.explain.PrunedShards())
			sp.SetAttr("groups", len(qp.explain.Groups))
		}
	}
	if qp.empty {
		return emptyCursor{vars: q.Select}, nil
	}
	if qp.local {
		loc, err := e.localEngine()
		if err != nil {
			return nil, err
		}
		return loc.Open(q, opts)
	}
	if qp.single != nil {
		return e.openSingle(qp.single, opts)
	}
	return e.openJoin(q, qp.join, opts)
}

// splitConstant separates fully-constant patterns (no variables anywhere)
// from the rest and verifies each against the data. A constant pattern is a
// pure existence filter: if it fails, the whole query is empty (ok ==
// false); if it holds it constrains nothing further.
func (e *Engine) splitConstant(pats []query.Pattern) (rest []query.Pattern, ok bool) {
	for _, p := range pats {
		if p.S.IsVar || p.P.IsVar || p.O.IsVar {
			rest = append(rest, p)
			continue
		}
		if !e.hasTriple(p) {
			return nil, false
		}
	}
	return rest, true
}

// hasTriple reports whether the fully-constant pattern's triple exists. The
// subject's owner shard holds it if anyone does; the check is one descent
// of that shard's (subject, object) trie.
func (e *Engine) hasTriple(p query.Pattern) bool {
	d := e.part.Dict()
	s, ok := d.Lookup(p.S.Term)
	if !ok {
		return false
	}
	pid, ok := d.Lookup(p.P.Term)
	if !ok {
		return false
	}
	o, ok := d.Lookup(p.O.Term)
	if !ok {
		return false
	}
	return e.part.shards[ShardOf(s, len(e.engs))].Has(store.Triple{S: s, P: pid, O: o}, set.PolicyAdaptive)
}

// group is one root-covered unit of scatter-gather: the root node appears
// in the subject or object position of every pattern, so all of a
// solution's triples for these patterns colocate on the shard owning the
// root's binding.
type group struct {
	root query.Node
	pats []query.Pattern
}

// vars returns the group's variables in first-appearance order.
func (g group) vars() []string {
	return (&query.BGP{Patterns: g.pats}).Vars()
}

// nodeKey identifies a node for grouping: variables by name, constants by
// their canonical term key.
func nodeKey(n query.Node) string {
	if n.IsVar {
		return "?" + n.Var
	}
	return n.Term.Key()
}

// decompose greedily covers the patterns with root groups: repeatedly pick
// the node (variable or constant, in subject/object position only —
// replication does not index by predicate) contained in the most remaining
// patterns, and emit those patterns as one group. Ties break towards first
// appearance, so α-equivalent queries decompose identically. Subject stars
// and object-subject chains come out as one group; the triangle query
// decomposes into two.
func decompose(pats []query.Pattern) []group {
	used := make([]bool, len(pats))
	remaining := len(pats)
	var groups []group
	for remaining > 0 {
		type cand struct {
			node  query.Node
			cover []int
		}
		seen := map[string]int{}
		var cands []cand
		for i, p := range pats {
			if used[i] {
				continue
			}
			for _, nd := range []query.Node{p.S, p.O} {
				k := nodeKey(nd)
				ci, ok := seen[k]
				if !ok {
					ci = len(cands)
					seen[k] = ci
					cands = append(cands, cand{node: nd})
				}
				// Guard against counting a pattern twice when S == O.
				if cov := cands[ci].cover; len(cov) == 0 || cov[len(cov)-1] != i {
					cands[ci].cover = append(cands[ci].cover, i)
				}
			}
		}
		best := cands[0]
		for _, c := range cands[1:] {
			if len(c.cover) > len(best.cover) {
				best = c
			}
		}
		g := group{root: best.node}
		for _, i := range best.cover {
			g.pats = append(g.pats, pats[i])
			used[i] = true
		}
		remaining -= len(best.cover)
		groups = append(groups, g)
	}
	return groups
}

// counting wraps a shard-local cursor so its rows feed the drain-balance
// counters.
func (e *Engine) counting(shard int, c engine.Cursor, err error) (engine.Cursor, error) {
	if err != nil {
		return nil, err
	}
	return engine.WithNext(&countCursor{BlockCursor: c, part: e.part, shard: shard}), nil
}

type countCursor struct {
	engine.BlockCursor
	part  *Partitioned
	shard int
}

func (c *countCursor) NextBlock(b *engine.Block) error {
	err := c.BlockCursor.NextBlock(b)
	if err == nil {
		c.part.delivered[c.shard].Add(int64(b.Len()))
	}
	return err
}

// openSingle executes a query fully covered by one root group, per its
// compiled plan.
func (e *Engine) openSingle(sp *singlePlan, opts engine.ExecOpts) (engine.Cursor, error) {
	if sp.constant {
		// Constant root: every solution's triples contain it, so its owner
		// shard alone answers the query — route instead of scattering, and
		// pass caps straight through (no filtering happens above it).
		sh := sp.shards[0]
		if e.remote != nil {
			// Remote route: push the cap hint down (unsafe under DISTINCT)
			// and apply Offset/MaxRows exactly at the coordinator.
			capHint := 0
			if opts.MaxRows > 0 && !sp.sub.Distinct {
				capHint = opts.Offset + opts.MaxRows + 1
			}
			cur, err := e.openShard(opts.Ctx, sh, sp.sub, RemoteHints{
				Owner: -1, Cap: capHint, SinglePattern: len(sp.sub.Patterns) == 1,
			})
			if err != nil {
				return nil, err
			}
			cur, err = e.counting(sh, cur, err)
			if err != nil {
				return nil, err
			}
			return engine.Limit(cur, opts.Offset, opts.MaxRows), nil
		}
		cur, err := e.engs[sh].Open(sp.sub, opts)
		return e.counting(sh, cur, err)
	}

	n := len(e.engs)
	outVars := sp.sub.Select
	if sp.strip {
		outVars = sp.sub.Select[:len(sp.sub.Select)-1]
	}

	// Per-shard row-cap hint: after the ownership filter each shard can
	// contribute at most Offset+MaxRows rows to the final result, plus one
	// so the merge-level cap's exactness probe can still find an overflow
	// row. Unsafe under DISTINCT (capped shard rows may collapse after the
	// root column is stripped), so no hint is pushed there.
	perShardCap := 0
	if opts.MaxRows > 0 && !sp.sub.Distinct {
		perShardCap = opts.Offset + opts.MaxRows + 1
	}

	keep := func(sh int, row []uint32) bool { return ShardOf(row[sp.rootIdx], n) == sh }
	var cur engine.BlockCursor
	if len(sp.shards) == 1 {
		// One surviving shard: filter in place, no fan-in goroutines.
		sh := sp.shards[0]
		inner, err := e.openShard(opts.Ctx, sh, sp.sub, e.drainHints(sh, sp.sub, sp.rootIdx, perShardCap, opts.Workers))
		if err != nil {
			return nil, err
		}
		cur = newFilter(inner, outVars, sh, keep, sp.strip, perShardCap, e.part, drainSpan(opts.Ctx, sh, true))
	} else {
		cur = e.gather(opts.Ctx, outVars, sp.sub, sp.shards, keep, sp.strip, perShardCap, sp.rootIdx, opts.Workers)
	}
	if sp.sub.Distinct {
		cur = newDedup(cur)
	}
	return engine.Limit(cur, opts.Offset, opts.MaxRows), nil
}

// openGroup opens the streaming cursor over one group's full solution set
// (all of the group's variables, no DISTINCT) — the building block of the
// merge-layer join. Group solutions are sets at full projection, so joining
// them reconstructs the whole query's solution set exactly.
func (e *Engine) openGroup(ctx context.Context, gp groupPlan, workers int) (engine.BlockCursor, error) {
	n := len(e.engs)
	if gp.rootIdx < 0 {
		// Constant root: the owner shard alone answers the group.
		sh := gp.shards[0]
		cur, err := e.openShard(ctx, sh, gp.sub, RemoteHints{Owner: -1, Workers: workers, SinglePattern: len(gp.sub.Patterns) == 1})
		return e.counting(sh, cur, err)
	}
	keep := func(sh int, row []uint32) bool { return ShardOf(row[gp.rootIdx], n) == sh }
	if len(gp.shards) == 1 {
		sh := gp.shards[0]
		inner, err := e.openShard(ctx, sh, gp.sub, e.drainHints(sh, gp.sub, gp.rootIdx, 0, workers))
		if err != nil {
			return nil, err
		}
		return newFilter(inner, gp.vars, sh, keep, false, 0, e.part, drainSpan(ctx, sh, true)), nil
	}
	return e.gather(ctx, gp.vars, gp.sub, gp.shards, keep, false, 0, gp.rootIdx, workers), nil
}

// errJoinCap stops the join producer once the merge-level cap (plus its
// exactness probe row) is satisfied — the per-shard row-cap hint of the
// multi-group path. The signal is an early clean EOF, not an error.
var errJoinCap = errors.New("shard: join output cap reached")

// openJoin executes a query needing several root groups: the plan's probe
// group (largest estimated solution set) streams while the remaining
// groups are materialized into hash tables keyed on their join variables —
// a left-deep streaming hash join at the merge layer.
//
// Cost: like any hash join, the build sides are materialized — coordinator
// memory is O(sum of the non-probe groups' solution sets), paid before the
// first row regardless of MaxRows (caps bound only the probe/output side).
// Greedy decomposition keeps build groups small (they are the leftover,
// usually single-pattern groups, bounded by one predicate's relation), but
// a root-uncoverable query over a huge predicate still builds a big table —
// the same trade the pairwise engines make for their join intermediates.
// Streaming both sides would need a distributed semi-join phase; see the
// ROADMAP's shard-aware planning follow-up.
func (e *Engine) openJoin(q *query.BGP, jp *joinPlan, opts engine.ExecOpts) (engine.Cursor, error) {
	// Output cap: the merge-level Limit stops at Offset+MaxRows plus one
	// exactness-probe row, so the producer — and through its context every
	// shard drain under it — can stop as soon as that many rows exist.
	// Unsafe under DISTINCT (deduplication may collapse capped rows).
	capRows := 0
	if opts.MaxRows > 0 && !q.Distinct {
		capRows = opts.Offset + opts.MaxRows + 1
	}

	raw := engine.NewGenerator(opts.Ctx, q.Select, func(gctx context.Context, out *engine.Emitter) error {
		// Build phase: materialize every non-probe group, each on its own
		// goroutine — the groups' scatter work is independent, so running
		// them back to back would serialize exactly the per-shard execution
		// the scatter exists to parallelize. The probe stream opens alongside
		// them and buffers into its drain batches while the tables build.
		// Cursors are context-aware, so cancellation lands mid-build too;
		// a failing build cancels its siblings through bctx.
		bctx, bcancel := context.WithCancel(gctx)
		defer bcancel()
		// Probe and build phases get their own child spans; the per-shard
		// drain spans under them attach through the context. All span calls
		// no-op (nil) for untraced queries.
		parent := obs.SpanFrom(gctx)
		psp := parent.Child("probe_group")
		defer psp.End()
		probe, err := e.openGroup(obs.WithSpan(bctx, psp), jp.groups[0], opts.Workers)
		if err != nil {
			return err
		}
		defer probe.Close()

		tabs := jp.cachedTabs()
		if tabs == nil {
			bsp := parent.Child("build_groups")
			bcctx := obs.WithSpan(bctx, bsp)
			tabs = make([]buildTable, len(jp.builds))
			errs := make([]error, len(jp.builds))
			var bwg sync.WaitGroup
			for i := range jp.builds {
				bwg.Add(1)
				go func(i int) {
					defer bwg.Done()
					w := jp.builds[i]
					cur, err := e.openGroup(bcctx, jp.groups[i+1], opts.Workers)
					if err != nil {
						errs[i] = err
						bcancel()
						return
					}
					defer cur.Close()
					tab := newBuildTable(len(w.rowKeyIx))
					for {
						// The table keeps the rows, so every block is a
						// fresh one the cursor never gets back.
						var blk engine.Block
						err := cur.NextBlock(&blk)
						if err == io.EOF {
							break
						}
						if err != nil {
							errs[i] = err
							bcancel()
							return
						}
						for r := 0; r < blk.Len(); r++ {
							tab.add(w.rowKeyIx, blk.Row(r))
						}
					}
					tabs[i] = tab
				}(i)
			}
			bwg.Wait()
			bsp.End()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			jp.storeTabs(tabs)
		} else {
			parent.SetAttr("build_cached", true)
		}

		emitted := 0
		// rows[d] is the row expand extends at depth d, reused for every
		// match there: expand is depth-first, so the rows it built below d
		// are done with by the time the next match at d overwrites rows[d].
		rows := make([][]uint32, len(jp.builds))
		var expand func(depth int, accRow []uint32) error
		expand = func(depth int, accRow []uint32) error {
			if depth == len(jp.builds) {
				row := out.Slot()
				for i, j := range jp.selIx {
					row[i] = accRow[j]
				}
				if err := out.Push(); err != nil {
					return err
				}
				emitted++
				if capRows > 0 && emitted >= capRows {
					return errJoinCap
				}
				return nil
			}
			w := jp.builds[depth]
			for _, m := range tabs[depth].lookup(accRow, w.accKey) {
				next := accRow
				if len(w.appendIx) > 0 {
					next = append(rows[depth][:0], accRow...)
					for _, j := range w.appendIx {
						next = append(next, m[j])
					}
					rows[depth] = next
				}
				if err := expand(depth+1, next); err != nil {
					return err
				}
			}
			return nil
		}
		tick := engine.NewTicker(gctx)
		var blk engine.Block
		for {
			err := probe.NextBlock(&blk)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			for r := 0; r < blk.Len(); r++ {
				if err := tick.Check(); err != nil {
					return err
				}
				if err := expand(0, blk.Row(r)); err != nil {
					if err == errJoinCap {
						// Cap satisfied: stop cleanly; probe.Close (deferred)
						// cancels the shard drains under the probe stream.
						return nil
					}
					return err
				}
			}
		}
	})
	var cur engine.BlockCursor = raw
	if q.Distinct {
		cur = newDedup(cur)
	}
	return engine.Limit(cur, opts.Offset, opts.MaxRows), nil
}

// rowKey encodes the selected columns of a row into a map key, using the
// repository-wide row-key encoding (engine.AppendRowKey and friends).
func rowKey(row []uint32, idx []int) string {
	b := make([]byte, 0, len(idx)*4)
	for _, i := range idx {
		b = engine.AppendRowKeyCol(b, row[i])
	}
	return string(b)
}

// dedupCursor streams only the first occurrence of each row — the merge
// layer's DISTINCT: shards deduplicate locally, but rows replicated across
// shards (and rows collapsing once the root column is stripped) must dedup
// here. Duplicates are compacted out of each block in place.
type dedupCursor struct {
	engine.BlockCursor
	seen engine.RowSet
}

func newDedup(c engine.BlockCursor) engine.BlockCursor { return &dedupCursor{BlockCursor: c} }

func (d *dedupCursor) NextBlock(b *engine.Block) error {
	for {
		if err := d.BlockCursor.NextBlock(b); err != nil {
			return err
		}
		b.Filter(d.seen.Add)
		if b.Len() > 0 {
			return nil
		}
	}
}

// emptyCursor is the empty result (unknown constants, failed existence
// filters, all scatter targets pruned).
type emptyCursor struct{ vars []string }

func (c emptyCursor) Vars() []string                  { return c.vars }
func (c emptyCursor) NextBlock(b *engine.Block) error { b.Reset(); return io.EOF }
func (c emptyCursor) Next() ([]uint32, error)         { return nil, io.EOF }
func (c emptyCursor) Truncated() bool                 { return false }
func (c emptyCursor) Close() error                    { return nil }
