package shard

import (
	"slices"

	"repro/internal/query"
)

// explain.go is the EXPLAIN surface of the scatter planner: a serializable
// summary of the compiled plan — decomposition, per-group scatter targets
// and pruned shards, probe-side choice, the prices behind declining to
// scatter — built once at compile time and retained on the cached plan, so
// explaining a query costs one plan-cache lookup and never re-plans or
// executes anything.

// ExplainGroup describes one root-covered group of a scatter plan.
type ExplainGroup struct {
	// Root is the group's root node: "?name" for a variable, the term's
	// canonical rendering for a constant.
	Root string `json:"root"`
	// Patterns is how many of the query's patterns the group covers.
	Patterns int `json:"patterns"`
	// Shards lists the scatter targets that survived statistics pruning;
	// for a constant root it is exactly the owner shard.
	Shards []int `json:"shards"`
	// Pruned lists the scatter targets statistics proved empty. For a
	// constant root the only candidate is the owner shard (pruning it
	// proves the whole query empty).
	Pruned []int `json:"pruned"`
	// EstRows is the group's estimated solution cardinality summed over its
	// surviving shards — the probe-side choice signal.
	EstRows float64 `json:"est_rows"`
}

// ExplainPlan summarizes one compiled scatter plan.
type ExplainPlan struct {
	// Kind is the execution shape: "passthrough" (one shard holds the whole
	// dataset), "empty" (statically proven empty), "single" (one
	// root-covered group, scatter-gather), "join" (multiple groups joined
	// at the merge layer), or "local" (declined to scatter: the query runs
	// on one engine over the unsharded parent store).
	Kind string `json:"kind"`
	// Shards is the partition's total shard count.
	Shards int `json:"shards"`
	// Groups lists the root-covered groups in decomposition order. For Kind
	// "local" they are the scatter that was priced and declined.
	Groups []ExplainGroup `json:"groups,omitempty"`
	// Probe indexes Groups: the group chosen to stream as the probe side of
	// the merge join. Meaningful only for Kind "join".
	Probe int `json:"probe,omitempty"`
	// LocalCost is the cost model's price for the whole query on the
	// unsharded parent store; ScatterCost is the price of the rows the
	// merge carries plus a fixed cost per opened shard drain. The query
	// runs "local" when ScatterCost >= LocalCost. Both are zero when the
	// planner did not price the choice (cluster coordinators always
	// scatter).
	LocalCost   float64 `json:"local_cost,omitempty"`
	ScatterCost float64 `json:"scatter_cost,omitempty"`
}

// TargetShards returns the union of the groups' surviving scatter targets,
// sorted.
func (p *ExplainPlan) TargetShards() []int { return unionShards(p.Groups, false) }

// PrunedShards returns the union of the groups' pruned targets, sorted. A
// shard appears here even if another group still targets it — the set
// answers "which (group, shard) sub-queries were skipped", collapsed to
// shard IDs.
func (p *ExplainPlan) PrunedShards() []int { return unionShards(p.Groups, true) }

func unionShards(groups []ExplainGroup, pruned bool) []int {
	seen := map[int]bool{}
	for _, g := range groups {
		src := g.Shards
		if pruned {
			src = g.Pruned
		}
		for _, sh := range src {
			seen[sh] = true
		}
	}
	out := make([]int, 0, len(seen))
	for sh := range seen {
		out = append(out, sh)
	}
	slices.Sort(out)
	return out
}

// Explain returns the compiled scatter plan's summary for q, planning (and
// caching the plan) on a cache miss. It never opens a cursor: the summary is
// assembled entirely at plan time.
func (e *Engine) Explain(q *query.BGP) (*ExplainPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(e.engs) == 1 {
		return &ExplainPlan{Kind: "passthrough", Shards: 1}, nil
	}
	return e.planFor(q).explain, nil
}
