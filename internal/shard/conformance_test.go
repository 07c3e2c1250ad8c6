package shard_test

// The cross-shard conformance suite: for every registered engine wrapped in
// shard.Engine, sharded execution must be indistinguishable from
// single-store execution —
//
//	(a) Collect equality (after canonical sort) with the unsharded engine,
//	    on the triangle/path/star query shapes and on the LUBM scale-1
//	    golden queries, at N ∈ {1, 2, 7, 8} shards, and
//	(b) the streaming-cursor contract of internal/engine's conformance
//	    suite holds for the merge cursor too: pre-cancelled contexts fail
//	    promptly, mid-enumeration cancellation stops within a bounded
//	    number of rows, MaxRows/Offset are exact, and early Close stops the
//	    producers, and
//	(c) declining to scatter changes no result: the engine as the cost
//	    model routes it, the same engine with scatter forced, and the naive
//	    oracle agree as multisets, with and without a pending live delta.
//
// (a) and (b) force the scatter (shard.ForceScatter): on fixtures this
// small the cost model would run most queries unsharded.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/live"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/store"
)

var shardCounts = []int{1, 2, 7, 8}

// conformanceStore is a complete digraph over n vertices under <http://c/p>
// plus sparse <http://c/q> and <http://c/r> edges: the triangle query on p
// yields n^3 rows, and q/r give the star query distinct predicates.
func conformanceStore(n int) *store.Store { return store.FromTriples(conformanceTriples(n)) }

func conformanceTriples(n int) []rdf.Triple {
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://c/n%d", i)) }
	p := rdf.NewIRI("http://c/p")
	q := rdf.NewIRI("http://c/q")
	r := rdf.NewIRI("http://c/r")
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, rdf.Triple{S: node(i), P: p, O: node(j)})
		}
		ts = append(ts,
			rdf.Triple{S: node(i), P: q, O: node((i + 1) % n)},
			rdf.Triple{S: node(i), P: r, O: node((i * 5) % n)})
	}
	return ts
}

const conformanceTriangle = `SELECT ?x ?y ?z WHERE { ?x <http://c/p> ?y . ?y <http://c/p> ?z . ?x <http://c/p> ?z }`

// shapeQueries are the shapes the partitioning strategy must get right:
// subject stars (shard-local), object-subject paths (replication), the
// triangle (merge-layer join), and a six-edge path, whose three root groups
// make the merge join extend its rows through two build tables in turn.
var shapeQueries = map[string]string{
	"star":          `SELECT ?a ?b ?c WHERE { ?x <http://c/q> ?a . ?x <http://c/r> ?b . ?x <http://c/p> ?c }`,
	"star-distinct": `SELECT DISTINCT ?a ?b WHERE { ?x <http://c/q> ?a . ?x <http://c/r> ?b }`,
	"path2":         `SELECT ?x ?z WHERE { ?x <http://c/q> ?y . ?y <http://c/r> ?z }`,
	"path3":         `SELECT ?w ?z WHERE { ?w <http://c/q> ?x . ?x <http://c/q> ?y . ?y <http://c/r> ?z }`,
	"object-object": `SELECT ?a ?b WHERE { ?a <http://c/q> ?v . ?b <http://c/r> ?v }`,
	"triangle":      conformanceTriangle,
	"path6":         `SELECT ?a ?b ?c ?d ?e ?f ?g WHERE { ?a <http://c/q> ?b . ?b <http://c/r> ?c . ?c <http://c/q> ?d . ?d <http://c/r> ?e . ?e <http://c/q> ?f . ?f <http://c/r> ?g }`,
}

// forEachSharded runs f once per (registered engine, shard count) over st.
// The sharded engine always scatters (see the file comment).
func forEachSharded(t *testing.T, st *store.Store, f func(t *testing.T, base, sh engine.Engine, n int)) {
	t.Helper()
	parts := map[int]*shard.Partitioned{}
	for _, n := range shardCounts {
		p, err := shard.Partition(st, n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		parts[n] = p
	}
	for _, name := range engines.Names() {
		base, err := engines.New(name, st)
		if err != nil {
			t.Fatalf("engines.New(%s): %v", name, err)
		}
		for _, n := range shardCounts {
			sh, err := engines.NewSharded(name, parts[n])
			if err != nil {
				t.Fatalf("engines.NewSharded(%s, %d): %v", name, n, err)
			}
			shard.ForceScatter(sh)
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) { f(t, base, sh, n) })
		}
	}
}

// TestShardConformanceShapes: sharded Collect equals unsharded Collect on
// every query shape, for every engine, at every shard count.
func TestShardConformanceShapes(t *testing.T) {
	st := conformanceStore(12)
	for shape, text := range shapeQueries {
		q := query.MustParseSPARQL(text)
		wants := map[string]string{}
		forEachSharded(t, st, func(t *testing.T, base, sh engine.Engine, n int) {
			want, ok := wants[shape+base.Name()]
			if !ok {
				res, err := engine.Collect(base.Open(q, engine.ExecOpts{}))
				if err != nil {
					t.Fatalf("%s unsharded: %v", shape, err)
				}
				want = res.Canonical()
				wants[shape+base.Name()] = want
			}
			got, err := engine.Collect(sh.Open(q, engine.ExecOpts{}))
			if err != nil {
				t.Fatalf("%s: %v", shape, err)
			}
			if got.Truncated {
				t.Fatalf("%s: uncapped result marked truncated", shape)
			}
			if got.Canonical() != want {
				t.Errorf("%s: sharded result differs from unsharded", shape)
			}
		})
	}
}

// TestShardConformanceLUBM: sharded Collect is byte-identical (after
// canonical sort) to the unsharded engine on the LUBM scale-1 golden
// queries, for all six engines at N ∈ {1, 2, 7, 8}.
func TestShardConformanceLUBM(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scale := 1
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: scale}))
	ref, err := engines.New("naive", st)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]string{}
	for _, qn := range lubm.QueryNumbers {
		q := query.MustParseSPARQL(lubm.Query(qn, scale))
		want, err := engine.Collect(ref.Open(q, engine.ExecOpts{}))
		if err != nil {
			t.Fatalf("Q%d naive: %v", qn, err)
		}
		wants[qn] = want.Canonical()
	}
	forEachSharded(t, st, func(t *testing.T, base, sh engine.Engine, n int) {
		for _, qn := range lubm.QueryNumbers {
			q := query.MustParseSPARQL(lubm.Query(qn, scale))
			got, err := engine.Collect(sh.Open(q, engine.ExecOpts{}))
			if err != nil {
				t.Fatalf("Q%d: %v", qn, err)
			}
			if got.Canonical() != wants[qn] {
				t.Errorf("Q%d: sharded result differs from naive oracle (%d rows)", qn, got.Len())
			}
		}
	})
}

// TestShardConformancePreCancelled: an already-cancelled context surfaces
// promptly from the merge cursor.
func TestShardConformancePreCancelled(t *testing.T) {
	st := conformanceStore(16)
	q := query.MustParseSPARQL(conformanceTriangle)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	forEachSharded(t, st, func(t *testing.T, _, sh engine.Engine, n int) {
		start := time.Now()
		cur, err := sh.Open(q, engine.ExecOpts{Ctx: ctx})
		if err == nil {
			_, err = cur.Next()
			cur.Close()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("pre-cancelled open took %v", d)
		}
	})
}

// TestShardConformanceCancelMidEnumeration: cancel after a few rows; the
// merge cursor must fail within a bounded number of further rows, proving
// shard producers reacted instead of enumerating detached.
func TestShardConformanceCancelMidEnumeration(t *testing.T) {
	st := conformanceStore(48) // 110592 triangle rows if run to completion
	q := query.MustParseSPARQL(conformanceTriangle)
	forEachSharded(t, st, func(t *testing.T, _, sh engine.Engine, n int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cur, err := sh.Open(q, engine.ExecOpts{Ctx: ctx})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer cur.Close()
		for i := 0; i < 10; i++ {
			if _, err := cur.Next(); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
		}
		cancel()
		const bound = 30000 // generator batches + fan-in buffers per shard
		rowsAfter := 0
		deadline := time.After(10 * time.Second)
		for {
			select {
			case <-deadline:
				t.Fatalf("cursor did not observe cancellation within 10s (%d rows drained)", rowsAfter)
			default:
			}
			_, err := cur.Next()
			if errors.Is(err, context.Canceled) {
				return
			}
			if err != nil {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			rowsAfter++
			if rowsAfter > bound {
				t.Fatalf("more than %d rows after cancellation — producers did not stop", bound)
			}
		}
	})
}

// TestShardConformanceExactTruncationAndOffset: MaxRows is exact at the
// merge cursor (a cap equal to the result size is not "truncated"; one
// below is) and Offset skips without changing the tail, on both merge paths
// (path2 exercises the scatter-gather union with per-shard cap hints,
// triangle the merge-layer join).
func TestShardConformanceExactTruncationAndOffset(t *testing.T) {
	n := 8
	total := n * n * n // 512 rows for both shapes below
	st := conformanceStore(n)
	for shape, text := range map[string]string{
		"path2":    `SELECT ?x ?z WHERE { ?x <http://c/p> ?y . ?y <http://c/p> ?z }`,
		"triangle": conformanceTriangle,
	} {
		q := query.MustParseSPARQL(text)
		forEachSharded(t, st, func(t *testing.T, _, sh engine.Engine, shards int) {
			exact, err := engine.Collect(sh.Open(q, engine.ExecOpts{MaxRows: total}))
			if err != nil {
				t.Fatal(err)
			}
			if exact.Len() != total || exact.Truncated {
				t.Fatalf("%s exact cap: rows=%d truncated=%v, want %d/false", shape, exact.Len(), exact.Truncated, total)
			}
			capped, err := engine.Collect(sh.Open(q, engine.ExecOpts{MaxRows: total - 1}))
			if err != nil {
				t.Fatal(err)
			}
			if capped.Len() != total-1 || !capped.Truncated {
				t.Fatalf("%s cap-1: rows=%d truncated=%v, want %d/true", shape, capped.Len(), capped.Truncated, total-1)
			}
			shifted, err := engine.Collect(sh.Open(q, engine.ExecOpts{Offset: total - 5}))
			if err != nil {
				t.Fatal(err)
			}
			if shifted.Len() != 5 || shifted.Truncated {
				t.Fatalf("%s offset: rows=%d truncated=%v, want 5/false", shape, shifted.Len(), shifted.Truncated)
			}
		})
	}
}

// TestShardConformanceEarlyCloseStopsProducer: closing the merge cursor
// after a few rows leaks nothing — Close is idempotent, Next afterwards is
// io.EOF, and a rerun on the same sharded engine still completes.
func TestShardConformanceEarlyCloseStopsProducer(t *testing.T) {
	st := conformanceStore(12)
	q := query.MustParseSPARQL(conformanceTriangle)
	forEachSharded(t, st, func(t *testing.T, _, sh engine.Engine, n int) {
		cur, err := sh.Open(q, engine.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(); err != io.EOF {
			t.Fatalf("Next after Close = %v, want io.EOF", err)
		}
		res, err := engine.Collect(sh.Open(q, engine.ExecOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 12*12*12 {
			t.Fatalf("rerun after early close: %d rows, want %d", res.Len(), 12*12*12)
		}
	})
}

// pendingDelta derives a two-sided patch from a fixture: it tombstones
// every 40th triple and inserts, for every 37th, the triple joining its
// subject to the next such triple's object under its predicate — edges
// between existing nodes, so joins cross base and delta.
func pendingDelta(ts []rdf.Triple) (ins, del []rdf.Triple) {
	for i := 0; i < len(ts); i += 40 {
		del = append(del, ts[i])
	}
	for i := 0; i+37 < len(ts); i += 37 {
		ins = append(ins, rdf.Triple{S: ts[i].S, P: ts[i].P, O: ts[i+37].O})
	}
	return ins, del
}

// patched returns (st \ del) ∪ ins as a fresh store over st's dictionary,
// so its rows compare id for id with stores sharing that dictionary.
func patched(st *store.Store, ins, del []rdf.Triple) *store.Store {
	d := st.Dict()
	enc := func(t rdf.Triple) store.Triple {
		s, _ := d.Lookup(t.S)
		p, _ := d.Lookup(t.P)
		o, _ := d.Lookup(t.O)
		return store.Triple{S: s, P: p, O: o}
	}
	keep := map[store.Triple]bool{}
	for t := range st.All() {
		keep[t] = true
	}
	for _, t := range del {
		delete(keep, enc(t))
	}
	for _, t := range ins {
		keep[enc(t)] = true
	}
	out := make([]store.Triple, 0, len(keep))
	for t := range keep {
		out = append(out, t)
	}
	return store.FromEncoded(d, out)
}

// TestDeclinedMatchesScatterAndNaive: for every conformance query and shard
// count, the live "auto" engine as the cost model routes it and the same
// engine with scatter forced return naive's multiset over the same triples
// — with an empty delta, and with a pending delta, where the declined path
// streams the unsharded base under the overlay. Some plans must actually
// decline, or the check proves nothing.
func TestDeclinedMatchesScatterAndNaive(t *testing.T) {
	type fixture struct {
		name    string
		triples []rdf.Triple
		queries []string
	}
	fixtures := []fixture{{name: "shapes", triples: conformanceTriples(12)}}
	for _, text := range shapeQueries {
		fixtures[0].queries = append(fixtures[0].queries, text)
	}
	if !testing.Short() {
		lf := fixture{name: "lubm", triples: lubm.Generate(lubm.Config{Universities: 1})}
		for _, qn := range lubm.QueryNumbers {
			lf.queries = append(lf.queries, lubm.Query(qn, 1))
		}
		fixtures = append(fixtures, lf)
	}
	var declined int64
	for _, fx := range fixtures {
		// Every live store below shares st, and with it the dictionary the
		// oracle's rows are compared in; the patch only reuses known terms.
		st := store.FromTriples(fx.triples)
		ins, del := pendingDelta(fx.triples)
		for _, pending := range []bool{false, true} {
			oracleStore := st
			if pending {
				oracleStore = patched(st, ins, del)
			}
			oracle, err := engines.New("naive", oracleStore)
			if err != nil {
				t.Fatal(err)
			}
			wants := make([]string, len(fx.queries))
			for i, text := range fx.queries {
				res, err := engine.Collect(oracle.Open(query.MustParseSPARQL(text), engine.ExecOpts{}))
				if err != nil {
					t.Fatalf("%s naive: %v", fx.name, err)
				}
				wants[i] = res.Canonical()
			}
			for _, n := range shardCounts {
				for _, forced := range []bool{false, true} {
					if forced && n == 1 {
						continue // an unpartitioned live store has no scatter to force
					}
					ls, err := live.NewStore(st, live.Options{Shards: n})
					if err != nil {
						t.Fatal(err)
					}
					if pending {
						if _, err := ls.Delete(del); err != nil {
							t.Fatal(err)
						}
						if _, err := ls.Insert(ins); err != nil {
							t.Fatal(err)
						}
					}
					le, err := engines.NewLive("auto", ls)
					if err != nil {
						t.Fatal(err)
					}
					if forced {
						inner, err := le.Inner()
						if err != nil {
							t.Fatal(err)
						}
						shard.ForceScatter(inner)
					}
					for i, text := range fx.queries {
						got, err := engine.Collect(le.Open(query.MustParseSPARQL(text), engine.ExecOpts{}))
						if err != nil {
							t.Fatalf("%s n=%d forced=%v pending=%v: %v", fx.name, n, forced, pending, err)
						}
						if got.Canonical() != wants[i] {
							t.Errorf("%s n=%d forced=%v pending=%v: %d rows differ from naive\n%s", fx.name, n, forced, pending, got.Len(), text)
						}
					}
					if p := ls.Part(); p != nil {
						d := p.PlanStats().PlansDeclined
						if forced && d != 0 {
							t.Fatalf("%s n=%d: %d plans declined with scatter forced", fx.name, n, d)
						}
						declined += d
					}
				}
			}
		}
	}
	if declined == 0 {
		t.Fatal("no plan declined to scatter; the routed path went unchecked")
	}
}
