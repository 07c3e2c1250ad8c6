package shard

// qplan.go is the scatter planner: it turns a BGP into a cached, reusable
// scatter plan — the root-group decomposition, per-group statistics-pruned
// shard target lists, cardinality estimates for the merge join's probe-side
// choice, and the interned per-shard sub-queries — or the decision, priced
// by the same cost model, not to scatter it at all. Interning matters beyond
// avoiding re-decomposition: downstream engines cache their own compiled
// plans per *query.BGP pointer (emptyheaded's GHD plans, logicblox's flat
// ones), so handing every shard the same sub-query pointer on every
// execution turns a sharded cache hit into "skip all per-shard planning",
// not just "skip parse+normalize". The cache lives on the Engine, which the
// live layer rebuilds on every epoch swap — plans can never outlive the
// statistics they were pruned against.

import (
	"sync"

	"repro/internal/plan"
	"repro/internal/query"
)

// planCacheCap bounds the scatter-plan cache. When full, one arbitrary
// entry is evicted (map iteration order), so an adversarial query stream
// degrades to one recompute per new query instead of periodically dumping
// the whole working set.
const planCacheCap = 1 << 12

// queryPlan is one compiled scatter plan. Exactly one of single/join is set
// unless empty or local is.
type queryPlan struct {
	// empty marks queries statically proven empty: a fully-constant pattern
	// absent from the data, a constant missing from the dictionary, or a
	// group whose every shard was pruned.
	empty bool
	// local marks a query the cost model declined to scatter: it runs on
	// the engine over the unsharded parent store.
	local  bool
	single *singlePlan
	join   *joinPlan
	// explain is the plan's serializable summary, assembled at compile time
	// (see explain.go); execution never reads it.
	explain *ExplainPlan
}

// singlePlan executes a query fully covered by one root group.
type singlePlan struct {
	// sub is the interned sub-query every target shard runs: the caller's
	// projection with the root variable appended when it was not selected
	// (strip), DISTINCT preserved.
	sub *query.BGP
	// shards lists the scatter targets that survived pruning; for a
	// constant root it is exactly the owner shard.
	shards []int
	// rootIdx locates the root variable in sub.Select (variable roots).
	rootIdx int
	strip   bool
	// constant marks a constant root: the owner shard alone answers the
	// query, no ownership filter or merge is needed, and caps pass through.
	constant bool
}

// groupPlan is one root-covered group inside a multi-group (join) plan.
type groupPlan struct {
	// sub is the interned full-projection sub-query (all group variables,
	// no DISTINCT — group solutions are sets at full projection).
	sub  *query.BGP
	vars []string
	// rootIdx locates the root in vars; -1 marks a constant root.
	rootIdx int
	// shards lists the scatter targets that survived pruning; pruned lists
	// the targets statistics skipped (the EXPLAIN surface and the
	// pruned-per-query histogram read it).
	shards []int
	pruned []int
	// est is the group's estimated solution cardinality summed over its
	// target shards (plan.ProfileQuery) — the probe-side choice signal.
	est float64
}

// joinPlan executes a query needing several root groups: groups[0] streams
// as the probe side, the rest are materialized into hash tables.
type joinPlan struct {
	groups []groupPlan
	// builds[i] wires groups[i+1] into the left-deep join.
	builds []buildWire
	// selIx maps the accumulated row to the caller's projection.
	selIx []int

	// Materialized build sides, memoized after the first execution: the
	// partition is immutable and the live layer rebuilds the whole Engine
	// (and with it this plan cache) on every epoch swap, so a build group's
	// solution set can never change under a cached plan. Re-executions of a
	// repeated query then pay only the probe stream and the expansion —
	// the broadcast side ships once, exactly like a distributed engine
	// caching its broadcast relations at the coordinator. Guarded by mu;
	// tabs stays nil until a build completes successfully (a cancelled or
	// failed build is not cached) or the tables exceed buildCacheMaxRows.
	mu   sync.Mutex
	tabs []buildTable
}

// buildTable is one materialized build group keyed by its join columns —
// uint32-keyed when the key is a single column (no per-row string
// allocation on either side of the join), string-encoded otherwise.
type buildTable struct {
	byID  map[uint32][][]uint32
	byKey map[string][][]uint32
}

// newBuildTable picks the keying for a build group by its join-key arity.
func newBuildTable(keyCols int) buildTable {
	if keyCols == 1 {
		return buildTable{byID: map[uint32][][]uint32{}}
	}
	return buildTable{byKey: map[string][][]uint32{}}
}

// add indexes one group row under its join-key columns.
func (t buildTable) add(keyIx []int, row []uint32) {
	if t.byID != nil {
		t.byID[row[keyIx[0]]] = append(t.byID[row[keyIx[0]]], row)
		return
	}
	k := rowKey(row, keyIx)
	t.byKey[k] = append(t.byKey[k], row)
}

// lookup returns the group rows matching the accumulated row's key columns.
func (t buildTable) lookup(accRow []uint32, accKey []int) [][]uint32 {
	if t.byID != nil {
		return t.byID[accRow[accKey[0]]]
	}
	return t.byKey[rowKey(accRow, accKey)]
}

// buildCacheMaxRows bounds the total rows memoized per join plan: build
// groups are usually the leftover single-pattern groups (bounded by one
// predicate's relation), but a root-uncoverable query over a huge predicate
// should pay per execution rather than pin the table in the plan cache.
const buildCacheMaxRows = 1 << 20

// cachedTabs returns the memoized build tables, or nil when not built yet.
func (jp *joinPlan) cachedTabs() []buildTable {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	return jp.tabs
}

// storeTabs memoizes successfully built tables unless they exceed the row
// bound. Concurrent executions may race to build; the first stored wins.
func (jp *joinPlan) storeTabs(tabs []buildTable) {
	rows := 0
	for _, t := range tabs {
		for _, rs := range t.byID {
			rows += len(rs)
		}
		for _, rs := range t.byKey {
			rows += len(rs)
		}
	}
	if rows > buildCacheMaxRows {
		return
	}
	jp.mu.Lock()
	if jp.tabs == nil {
		jp.tabs = tabs
	}
	jp.mu.Unlock()
}

// buildWire is the column wiring of one build group: which accumulated
// columns form the join key, which group columns match it, and which group
// columns extend the accumulated row.
type buildWire struct {
	accKey   []int
	rowKeyIx []int
	appendIx []int
}

// planFor resolves q's scatter plan, compiling and caching on miss. Cached
// plans depend only on the immutable partition and the query, so they are
// valid for the Engine's lifetime (one epoch).
func (e *Engine) planFor(q *query.BGP) *queryPlan {
	e.planMu.Lock()
	qp, ok := e.qplans[q]
	e.planMu.Unlock()
	if ok {
		e.part.planReuseHits.Add(1)
		return qp
	}
	qp = e.compile(q)
	e.planMu.Lock()
	if len(e.qplans) >= planCacheCap {
		for k := range e.qplans {
			delete(e.qplans, k)
			break
		}
	}
	e.qplans[q] = qp
	e.planMu.Unlock()
	return qp
}

// compile builds the scatter plan: verify constant patterns, decompose into
// root groups, prune and estimate each group's shard targets, and pick the
// probe side for multi-group joins. Then it prices the plan against running
// q whole on the unsharded parent store and declines to scatter when the
// scatter costs at least as much (see declineScatter). Cluster coordinators
// always scatter: their transport is a network hop this model does not
// price.
func (e *Engine) compile(q *query.BGP) *queryPlan {
	n := len(e.engs)
	exp := &ExplainPlan{Shards: n}
	rest, ok := e.splitConstant(q.Patterns)
	if !ok {
		exp.Kind = "empty"
		e.part.prunedPerQuery.Observe(0)
		return &queryPlan{empty: true, explain: exp}
	}
	groups := decompose(rest)
	e.part.plansCompiled.Add(1)
	e.part.groupsPlanned.Add(int64(len(groups)))

	totalPruned := 0
	record := func() {
		e.part.shardsPruned.Add(int64(totalPruned))
		e.part.prunedPerQuery.Observe(float64(totalPruned))
	}
	gps := make([]groupPlan, len(groups))
	for i, g := range groups {
		gp, ok := e.planGroup(g)
		totalPruned += len(gp.pruned)
		exp.Groups = append(exp.Groups, ExplainGroup{
			Root:     nodeKey(g.root),
			Patterns: len(g.pats),
			Shards:   gp.shards,
			Pruned:   gp.pruned,
			EstRows:  gp.est,
		})
		if !ok {
			record()
			exp.Kind = "empty"
			return &queryPlan{empty: true, explain: exp}
		}
		gps[i] = gp
	}
	record()
	qp := &queryPlan{explain: exp}
	streamed := gps // the streamed group first, as declineScatter expects
	if len(groups) == 1 {
		exp.Kind = "single"
		qp.single = planSingle(q, groups[0], gps[0])
	} else {
		exp.Kind = "join"
		qp.join, exp.Probe = planJoin(q, gps)
		streamed = qp.join.groups
	}
	if e.remote != nil || e.noDecline {
		return qp
	}
	prof, err := plan.ProfileQuery(q, e.part.base)
	if err != nil {
		return qp
	}
	exp.LocalCost = prof.Cost()
	var decline bool
	if exp.ScatterCost, decline = declineScatter(streamed, exp.LocalCost); !decline {
		return qp
	}
	e.part.plansDeclined.Add(1)
	exp.Kind, exp.Probe = "local", 0
	return &queryPlan{local: true, explain: exp}
}

// drainOpenCost is the scatter's fixed price per opened shard drain, in the
// cost model's units (set elements touched): a shard cursor open, its drain
// goroutine and the fan-in hand-off. decline_test.go records the
// measurement it was fitted to.
const drainOpenCost = 2000

// declineScatter prices one execution of a scatter over gps — the streamed
// group first (a single plan's only group, a join's probe), build groups
// after — and reports whether it costs at least localCost, the cost model's
// price for the whole query on the unsharded parent store. The price is the
// rows the merge carries plus drainOpenCost per opened shard drain. Build
// groups count only when their estimates exceed buildCacheMaxRows: below it
// their tables are memoized on the plan and ship once, not per execution.
func declineScatter(gps []groupPlan, localCost float64) (scatterCost float64, decline bool) {
	ship := func(gp groupPlan) float64 { return gp.est + drainOpenCost*float64(len(gp.shards)) }
	scatterCost = ship(gps[0])
	var builds float64
	for _, gp := range gps[1:] {
		builds += gp.est
	}
	if builds > buildCacheMaxRows {
		for _, gp := range gps[1:] {
			scatterCost += ship(gp)
		}
	}
	return scatterCost, scatterCost >= localCost
}

// planGroup resolves one group's shard targets and cardinality estimate;
// gp.pruned lists the scatter targets it skipped (the caller folds the
// counts into the partition-wide counters, once per compiled plan).
// ok == false means the group (and therefore the whole query) is provably
// empty. Pruning leans on plan.ProfileQuery over each shard's store: it
// consults the per-predicate statistics (a predicate with no triples on a
// shard prunes it outright) and answers constant-bound patterns exactly via
// one root-trie lookup — the same adaptive-layout tries the trie-based
// engines descend at execution time, so for them the lookup warms an index
// the shard would build anyway. Pruning is sound because a shard's
// sub-query is evaluated entirely within that shard's store: if any single
// pattern has zero matches there, the shard contributes nothing — and a
// solution rooted at a node owned by a pruned shard cannot exist at all,
// since every one of its triples is co-located on the owner by
// construction (owned by subject, replicated by object).
func (e *Engine) planGroup(g group) (groupPlan, bool) {
	n := len(e.engs)
	gp := groupPlan{vars: g.vars(), rootIdx: -1}
	gp.sub = &query.BGP{Select: gp.vars, Patterns: g.pats}

	if !g.root.IsVar {
		id, ok := e.part.Dict().Lookup(g.root.Term)
		if !ok {
			return gp, false
		}
		own := ShardOf(id, n)
		prof, err := plan.ProfileQuery(gp.sub, e.part.shards[own])
		if err == nil {
			if prof.Empty && !e.noPrune {
				// Every solution of a constant-rooted group lives on the
				// owner shard; an empty owner means an empty group.
				gp.pruned = []int{own}
				return gp, false
			}
			gp.est = prof.EstOut
		}
		gp.shards = []int{own}
		return gp, true
	}

	for i, v := range gp.vars {
		if v == g.root.Var {
			gp.rootIdx = i
			break
		}
	}
	for sh := 0; sh < n; sh++ {
		st := e.part.shards[sh]
		cannotMatch := st.NumTriples() == 0
		if prof, err := plan.ProfileQuery(gp.sub, st); err == nil {
			cannotMatch = cannotMatch || prof.Empty
			gp.est += prof.EstOut
		}
		if cannotMatch && !e.noPrune {
			gp.pruned = append(gp.pruned, sh)
			continue
		}
		gp.shards = append(gp.shards, sh)
	}
	return gp, len(gp.shards) > 0
}

// planSingle shapes the single-group execution: the caller's projection
// (root appended when missing, so the merge layer can apply the ownership
// filter) and the group's pruned shard targets.
func planSingle(q *query.BGP, g group, gp groupPlan) *singlePlan {
	if !g.root.IsVar {
		return &singlePlan{
			sub:      &query.BGP{Select: q.Select, Distinct: q.Distinct, Patterns: g.pats},
			shards:   gp.shards,
			constant: true,
		}
	}
	sel := q.Select
	rootIdx := -1
	for i, v := range sel {
		if v == g.root.Var {
			rootIdx = i
			break
		}
	}
	strip := false
	if rootIdx < 0 {
		// Appending a variable to a non-DISTINCT projection never changes
		// the multiset (projection does not deduplicate), and under DISTINCT
		// the merge dedups the stripped rows anyway.
		sel = append(append(make([]string, 0, len(q.Select)+1), q.Select...), g.root.Var)
		rootIdx = len(sel) - 1
		strip = true
	}
	return &singlePlan{
		sub:     &query.BGP{Select: sel, Distinct: q.Distinct, Patterns: g.pats},
		shards:  gp.shards,
		rootIdx: rootIdx,
		strip:   strip,
	}
}

// planJoin orders the groups for the left-deep merge join and precomputes
// the column wiring for the accumulated row. The probe side is chosen by
// the groups' cardinality estimates, in two regimes:
//
//   - When the non-probe groups fit the materialization budget, the
//     SMALLEST-estimate group streams as the probe. The build tables are
//     memoized on the plan (the partition is immutable), so re-executions
//     of a repeated query pay only the cheapest group's scatter plus the
//     hash expansion — the expensive groups ship to the coordinator once.
//   - Otherwise the LARGEST-estimate group streams, the classic hash-join
//     choice: the tables must be rebuilt per execution, so they should be
//     the small ones.
//
// It also returns the chosen probe group's index into gps, for EXPLAIN.
func planJoin(q *query.BGP, gps []groupPlan) (*joinPlan, int) {
	probe, largest := 0, 0
	var total float64
	for i, gp := range gps {
		total += gp.est
		if gp.est < gps[probe].est {
			probe = i
		}
		if gp.est > gps[largest].est {
			largest = i
		}
	}
	if total-gps[probe].est > buildCacheMaxRows {
		probe = largest
	}
	ordered := make([]groupPlan, 0, len(gps))
	ordered = append(ordered, gps[probe])
	for i, gp := range gps {
		if i != probe {
			ordered = append(ordered, gp)
		}
	}

	jp := &joinPlan{groups: ordered}
	acc := append([]string(nil), ordered[0].vars...)
	accPos := map[string]int{}
	for i, v := range acc {
		accPos[v] = i
	}
	for _, gp := range ordered[1:] {
		var w buildWire
		for j, v := range gp.vars {
			if i, ok := accPos[v]; ok {
				w.accKey = append(w.accKey, i)
				w.rowKeyIx = append(w.rowKeyIx, j)
			} else {
				w.appendIx = append(w.appendIx, j)
				accPos[v] = len(acc)
				acc = append(acc, v)
			}
		}
		jp.builds = append(jp.builds, w)
	}
	jp.selIx = make([]int, len(q.Select))
	for i, v := range q.Select {
		jp.selIx[i] = accPos[v]
	}
	return jp, probe
}
