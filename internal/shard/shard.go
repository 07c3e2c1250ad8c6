// Package shard implements horizontal partitioning of one RDF dataset into
// N subject-hash shards plus a scatter-gather execution engine over them —
// the classic distributed-SPARQL "old technique" composed with this
// repository's streaming cursor contract (every engine already streams
// context-aware, row-bounded cursors, so the merge layer streams shard
// cursors instead of materializing shard results).
//
// # Partitioning and replication
//
// The routing rule is ShardOf(subject): triple (s, p, o) is owned by shard
// hash(s) mod N. Subject-hash sharding answers subject-rooted patterns
// shard-locally, but a pattern whose join variable sits in the object
// position (object-subject chains, object-object joins) would need triples
// from other shards. Partition therefore additionally replicates every
// triple whose object hashes elsewhere to shard hash(o) — a
// replicated-by-object index. The cost is bounded: each triple is stored at
// most twice, so a shard set holds ≤ 2× the parent's triples (in practice
// less, because hash(s) == hash(o) collapses the copies; /stats reports the
// exact owned/replicated split per shard).
//
// With that layout, any query group that shares one root node across all of
// its patterns (the root appears in the subject or object position of every
// pattern) is answered exactly by scatter-gather: every solution's triples
// all contain the root's binding and are therefore present on the shard
// that owns it. Each shard additionally sees replicated triples, so the
// merge layer keeps a shard's row only when the row's root binding is owned
// by that shard — the ownership filter that deduplicates replication
// without disturbing SPARQL multiset semantics.
//
// Queries that no single root covers (the triangle query is the canonical
// example) are decomposed into root-covered groups; each group runs
// sharded-exact as above, and the merge layer joins the group streams
// (build-side groups are materialized into hash tables, the largest group
// streams through as the probe side). That is the broadcast phase of
// classic scatter-gather engines, landed at the coordinator.
//
// Scattering is not free: every opened shard drain and every row the merge
// carries costs work a single engine would not do. When the cost model
// prices that transport at or above the whole query's join work on the
// unsharded parent store, the planner declines to scatter and the query
// runs on one engine over the parent instead (see Engine.compile).
package shard

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/store"
)

// ShardOf is the routing rule: the index of the shard that owns the
// dictionary-encoded node id. Subjects route their triple's owned copy;
// objects route the replicated copy.
func ShardOf(id uint32, n int) int {
	return int(mix32(id) % uint32(n))
}

// mix32 is a strong 32-bit finalizer (lowbias32). Dictionary ids are dense
// and clustered by entity class, so routing on id % n directly would skew
// shards badly; mixing first spreads every cluster across all shards.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Partitioned is one dataset split into N shard stores that share the
// parent's dictionary. It is immutable after Partition apart from the
// delivered counters, which merge cursors bump as they drain shards.
type Partitioned struct {
	// base is the unsharded parent store: its dictionary is every shard's,
	// and queries the scatter planner declines run over it (see
	// Engine.compile). Callers partition a store they keep resident anyway,
	// so holding it costs nothing.
	base       *store.Store
	shards     []*store.Store
	owned      []int
	replicated []int

	// delivered counts rows each shard contributed to merge cursors — the
	// drain-balance signal /stats reports (a heavily skewed distribution
	// means the subject hash is not spreading the queried entities).
	delivered []atomic.Int64

	// Scatter-planning counters, bumped by the Engines executing over this
	// partition and surfaced in /stats: without them the difference between
	// "sharding pays" and "sharding is a pessimization" is only visible in
	// benches, never in production.
	shardsPruned  atomic.Int64 // (group, shard) scatter targets skipped by statistics
	groupsPlanned atomic.Int64 // root-covered groups compiled
	planReuseHits atomic.Int64 // Opens served from a cached scatter plan
	plansCompiled atomic.Int64 // scatter plans compiled (cache misses)
	plansDeclined atomic.Int64 // compiled plans run on the unsharded base

	// batchRows distributes the merge transport's flushed batch sizes
	// (observed once per batch, not per row — the drain hot loop stays
	// counter-free); prunedPerQuery distributes how many scatter targets
	// statistics pruned per compiled plan. Both feed /metrics histograms.
	batchRows      *obs.Hist
	prunedPerQuery *obs.Hist
}

// Partition splits st into n subject-hash shards, replicating each triple
// whose object is owned elsewhere to the object's shard (see the package
// comment for why). n == 1 yields a single shard holding every triple and
// no replicas.
func Partition(st *store.Store, n int) (*Partitioned, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	parts := make([][]store.Triple, n)
	owned := make([]int, n)
	replicated := make([]int, n)
	for t := range st.All() {
		own := ShardOf(t.S, n)
		parts[own] = append(parts[own], t)
		owned[own]++
		if rep := ShardOf(t.O, n); rep != own {
			parts[rep] = append(parts[rep], t)
			replicated[rep]++
		}
	}
	p := &Partitioned{
		base:       st,
		shards:     make([]*store.Store, n),
		owned:      owned,
		replicated: replicated,
		delivered:  make([]atomic.Int64, n),
		// Bounds 1..128 cover a block (engine.BlockRows); pruned counts
		// get an explicit 0 bucket so "query pruned nothing" is
		// distinguishable from "query pruned one target".
		batchRows:      obs.NewHist(obs.SizeBuckets(8)),
		prunedPerQuery: obs.NewHist(append([]float64{0}, obs.SizeBuckets(7)...)),
	}
	for i := range parts {
		p.shards[i] = store.FromEncoded(st.Dict(), parts[i])
	}
	return p, nil
}

// NumShards returns the shard count.
func (p *Partitioned) NumShards() int { return len(p.shards) }

// Shard returns shard i's store (owned + replicated triples).
func (p *Partitioned) Shard(i int) *store.Store { return p.shards[i] }

// Dict returns the dictionary shared by the parent and every shard.
func (p *Partitioned) Dict() *dict.Dictionary { return p.base.Dict() }

// ShardStat describes one shard for observability.
type ShardStat struct {
	// Owned is the number of triples whose subject this shard owns.
	Owned int
	// Replicated is the number of triples copied here for their object.
	Replicated int
	// Delivered is the cumulative number of rows this shard has contributed
	// to merge cursors — the scatter-gather drain balance.
	Delivered int64
}

// PlanStats reports the scatter-planning counters accumulated by every
// Engine executing over this partition.
type PlanStats struct {
	// ShardsPruned counts (group, shard) scatter targets that statistics
	// proved could not contribute rows (predicate absent on the shard,
	// zero-cardinality selection, constant missing from the shard's trie
	// root) — sub-queries never opened.
	ShardsPruned int64
	// GroupsPlanned counts root-covered groups compiled into scatter plans.
	GroupsPlanned int64
	// PlanReuseHits counts Opens answered from a cached scatter plan (the
	// decomposition, pruning, probe choice, and per-shard sub-queries are
	// all reused, so downstream engine plan caches hit too).
	PlanReuseHits int64
	// PlansCompiled counts scatter-plan cache misses.
	PlansCompiled int64
	// PlansDeclined counts compiled plans the cost model sent to the
	// unsharded base instead of scattering (ExplainPlan kind "local").
	PlansDeclined int64
}

// PlanStats snapshots the scatter-planning counters.
func (p *Partitioned) PlanStats() PlanStats {
	return PlanStats{
		ShardsPruned:  p.shardsPruned.Load(),
		GroupsPlanned: p.groupsPlanned.Load(),
		PlanReuseHits: p.planReuseHits.Load(),
		PlansCompiled: p.plansCompiled.Load(),
		PlansDeclined: p.plansDeclined.Load(),
	}
}

// BatchRowsHist snapshots the merge transport's batch-size histogram.
func (p *Partitioned) BatchRowsHist() obs.HistSnapshot { return p.batchRows.Snapshot() }

// PrunedPerQueryHist snapshots the shards-pruned-per-compiled-plan histogram.
func (p *Partitioned) PrunedPerQueryHist() obs.HistSnapshot { return p.prunedPerQuery.Snapshot() }

// Stats snapshots the per-shard layout and drain-balance counters.
func (p *Partitioned) Stats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	for i := range out {
		out[i] = ShardStat{
			Owned:      p.owned[i],
			Replicated: p.replicated[i],
			Delivered:  p.delivered[i].Load(),
		}
	}
	return out
}
