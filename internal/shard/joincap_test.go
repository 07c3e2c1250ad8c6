package shard

// White-box test for the multi-group join path's row-cap behaviour: the
// regression was that openJoin drained every shard of the probe group to
// exhaustion regardless of MaxRows. With the cap wired through (errJoinCap
// stops the producer, whose context cancels the shard drains), a capped
// join must touch a bounded prefix of the probe stream — and a re-execution
// must not re-drain the build groups at all, because the plan memoizes its
// materialized build tables.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/naive"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// tallyEngine wraps a shard-local engine and counts the rows its cursors
// produce, split by the sub-query's projection width — which distinguishes
// the two root groups of the test query (build group: 3 vars, probe group:
// 2 vars).
type tallyEngine struct {
	inner        engine.Engine
	wide, narrow *atomic.Int64
}

func (e *tallyEngine) Name() string { return "tally" }

func (e *tallyEngine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	cur, err := e.inner.Open(q, opts)
	if err != nil {
		return nil, err
	}
	ctr := e.narrow
	if len(q.Select) >= 3 {
		ctr = e.wide
	}
	return engine.WithNext(&tallyCursor{BlockCursor: cur, ctr: ctr}), nil
}

type tallyCursor struct {
	engine.BlockCursor
	ctr *atomic.Int64
}

func (c *tallyCursor) NextBlock(b *engine.Block) error {
	err := c.BlockCursor.NextBlock(b)
	if err == nil {
		c.ctr.Add(int64(b.Len()))
	}
	return err
}

// TestJoinRowCapBoundsProbeDrain: on a two-group join, MaxRows stops the
// probe-side shard drains after a bounded prefix instead of enumerating the
// whole group, and the memoized build tables make re-executions skip the
// build groups entirely.
func TestJoinRowCapBoundsProbeDrain(t *testing.T) {
	// A q-chain n0→n1→…→n12000 and r-edges n_i→m_i for i < 8000. The query
	// decomposes into group A = {?w q ?x . ?x q ?y} rooted at x (3 vars,
	// ~12k solutions) and group B = {?y r ?z} rooted at y (2 vars, 8k
	// solutions); B's smaller estimate makes it the probe side, A the
	// memoized build table.
	const chainLen, rEdges = 12000, 8000
	b := store.NewBuilder()
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://j/n%d", i)) }
	leaf := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://j/m%d", i)) }
	qp := rdf.NewIRI("http://j/q")
	rp := rdf.NewIRI("http://j/r")
	for i := 0; i < chainLen; i++ {
		b.Add(rdf.Triple{S: node(i), P: qp, O: node(i + 1)})
	}
	for i := 0; i < rEdges; i++ {
		b.Add(rdf.Triple{S: node(i), P: rp, O: leaf(i)})
	}
	st := b.Build()
	p, err := Partition(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wide, narrow atomic.Int64
	sh, err := NewEngine(p, "tally", func(s *store.Store) (engine.Engine, error) {
		return &tallyEngine{inner: naive.New(s), wide: &wide, narrow: &narrow}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.noDecline = true // the join path is under test, whatever the cost model prefers

	q := query.MustParseSPARQL(
		`SELECT ?w ?z WHERE { ?w <http://j/q> ?x . ?x <http://j/q> ?y . ?y <http://j/r> ?z }`)
	// A 2-chain ends at y = n_i for i >= 2; an r-edge leaves n_i for
	// i < rEdges, so the full join has rEdges-2 solutions.
	const totalRows = rEdges - 2

	// Execution 1: capped. The merge-level cap plus its exactness-probe row
	// bounds the probe drain to the fan-in buffers, far below B's 8k rows
	// (the shard cursors also see replicated copies, so an unbounded drain
	// would count well above rEdges).
	res, err := engine.Collect(sh.Open(q, engine.ExecOpts{MaxRows: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || !res.Truncated {
		t.Fatalf("capped join: rows=%d truncated=%v, want 2/true", res.Len(), res.Truncated)
	}
	qplan := sh.qplans[q]
	if qplan == nil || qplan.join == nil {
		t.Fatal("query did not compile to a join plan")
	}
	if got := len(qplan.join.groups[0].vars); got != 2 {
		t.Fatalf("probe group has %d vars, want 2 (smallest-estimate group)", got)
	}
	narrowCapped := narrow.Load()
	if narrowCapped >= 4000 {
		t.Fatalf("capped join drained %d probe-group rows — the cap did not stop the shard drains", narrowCapped)
	}
	// The build group is materialized in full regardless of the cap (hash
	// joins pay their build side up front).
	wideBuilt := wide.Load()
	if wideBuilt < chainLen-2 {
		t.Fatalf("build group drained %d rows, want >= %d", wideBuilt, chainLen-2)
	}

	// Execution 2: uncapped, same query pointer. The probe streams in full,
	// but the build group is served from the memoized tables — zero new
	// build-side rows.
	reuseBefore := p.PlanStats().PlanReuseHits
	res2, err := engine.Collect(sh.Open(q, engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != totalRows || res2.Truncated {
		t.Fatalf("uncapped join: rows=%d truncated=%v, want %d/false", res2.Len(), res2.Truncated, totalRows)
	}
	if got := wide.Load(); got != wideBuilt {
		t.Fatalf("re-execution drained %d new build-group rows, want 0 (memoized tables)", got-wideBuilt)
	}
	narrowFull := narrow.Load() - narrowCapped
	if narrowFull < rEdges {
		t.Fatalf("uncapped probe drained %d rows, want >= %d", narrowFull, rEdges)
	}
	if p.PlanStats().PlanReuseHits <= reuseBefore {
		t.Fatal("re-execution did not hit the scatter-plan cache")
	}
}
