package live_test

// The overlay conformance suite: every registered engine, wrapped by
// live.Engine over a base-plus-delta store (sharded and unsharded), must
//
//	(a) be Collect-identical to a store rebuilt from scratch over the
//	    patched triple set (LUBM plus star/path/triangle shapes, DISTINCT
//	    included),
//	(b) keep the full cursor contract on the overlay path: pre-cancelled
//	    contexts fail promptly, mid-enumeration cancellation stops within a
//	    bounded number of rows, MaxRows/Offset are exact, and early Close
//	    does not leak the producer.
//
// The delta is always non-empty in these tests, so the correction-merge
// path (not the empty-delta pass-through) is what is being exercised.

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
	"repro/internal/store"
)

// conformanceOverlay builds a complete-digraph live store where part of the
// graph arrives via delta inserts and part of the base is tombstoned: the
// triangle query exercises joins that cross base and delta triples in every
// combination. The delta also carries a predicate the base has never seen
// and one base triple that is tombstoned and then re-inserted. The returned
// set records every triple the store should hold.
func conformanceOverlay(t *testing.T, n, shards int) (*live.Store, tripleSet) {
	t.Helper()
	p := rdf.NewIRI("http://c/p")
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://c/n%d", i)) }
	var base, held, dead []rdf.Triple
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tr := rdf.Triple{S: node(i), P: p, O: node(j)}
			switch {
			case (i+j)%17 == 0:
				held = append(held, tr) // arrives later via the delta
			default:
				base = append(base, tr)
				if (i*j)%23 == 1 {
					dead = append(dead, tr) // tombstoned base triple
				}
			}
		}
	}
	ls, err := live.NewStore(store.FromTriples(base), live.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	applied := newTripleSet(base)
	q := rdf.NewIRI("http://c/q")
	held = append(held, rdf.Triple{S: node(0), P: q, O: node(1)}, rdf.Triple{S: node(1), P: q, O: node(1)})
	applied.apply(t, ls, live.InsertAll(held))
	applied.apply(t, ls, live.DeleteAll(dead))
	if res := applied.apply(t, ls, live.InsertAll(dead[:1])); res.Inserted != 1 { // n1 p n1 comes back
		t.Fatalf("re-inserting a tombstoned triple: inserted=%d", res.Inserted)
	}
	if ins, del := ls.DeltaSize(); ins == 0 || del == 0 {
		t.Fatalf("conformance overlay needs a two-sided delta, got ins=%d del=%d", ins, del)
	}
	return ls, applied
}

const overlayTriangle = `SELECT ?x ?y ?z WHERE { ?x <http://c/p> ?y . ?y <http://c/p> ?z . ?x <http://c/p> ?z }`

// forEachLiveEngine runs f once per registered engine wrapped over ls.
func forEachLiveEngine(t *testing.T, ls *live.Store, f func(t *testing.T, e *live.Engine)) {
	t.Helper()
	for _, name := range engines.Names() {
		le, err := engines.NewLive(name, ls)
		if err != nil {
			t.Fatalf("engines.NewLive(%s): %v", name, err)
		}
		t.Run(name, func(t *testing.T) { f(t, le) })
	}
}

func shardCounts() []int { return []int{1, 3} }

// TestOverlayConformanceShapes: star, path, object-object, triangle, and
// variable-predicate shapes over a base+delta graph must match the rebuilt
// store for every engine, sharded and unsharded — as must a repeated
// variable, a constant no triple holds, a predicate only the delta holds and
// a triple deleted and re-inserted within one delta.
func TestOverlayConformanceShapes(t *testing.T) {
	queries := []string{
		`SELECT ?a ?b WHERE { ?a <http://c/p> ?b }`,
		`SELECT ?a ?b ?c WHERE { ?a <http://c/p> ?b . ?a <http://c/p> ?c }`,
		`SELECT ?a ?b ?c WHERE { ?a <http://c/p> ?b . ?b <http://c/p> ?c }`,
		`SELECT ?a ?b WHERE { ?a <http://c/p> <http://c/n3> . ?b <http://c/p> <http://c/n3> }`,
		overlayTriangle,
		`SELECT DISTINCT ?y WHERE { ?x <http://c/p> ?y . ?y <http://c/p> ?x }`,
		`SELECT ?s ?o WHERE { ?s ?pr ?o . ?o <http://c/p> <http://c/n0> }`,
		`SELECT ?s ?pr ?o WHERE { ?s ?pr ?o }`,
		`SELECT ?pr ?o WHERE { <http://c/n1> ?pr ?o }`,
		`SELECT ?x WHERE { ?x <http://c/p> ?x }`,
		`SELECT ?a WHERE { ?a <http://c/p> <http://c/absent> }`,
		`SELECT ?a ?b WHERE { ?a <http://c/q> ?b . ?b <http://c/p> ?a }`,
		`SELECT ?o WHERE { <http://c/n1> <http://c/p> ?o }`,
	}
	for _, shards := range shardCounts() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ls, applied := conformanceOverlay(t, 12, shards)
			overlayEquals(t, ls, applied, queries...)
		})
	}
}

// TestOverlayConformanceLUBM: the paper's benchmark queries over a patched
// LUBM scale-1 dataset — deletes knocked out of the base, inserts rewired
// from existing vocabulary plus brand-new entities — must match a rebuilt
// store for every engine, sharded and unsharded.
func TestOverlayConformanceLUBM(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scale := 1
	for _, shards := range shardCounts() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			triples := lubm.Generate(lubm.Config{Universities: scale})
			base := store.FromTriples(triples)
			ls, err := live.NewStore(base, live.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			applied := newTripleSet(triples)
			applyLUBMPatch(t, ls, base, applied)
			queries := make([]string, 0, len(lubm.QueryNumbers))
			for _, qn := range lubm.QueryNumbers {
				queries = append(queries, lubm.Query(qn, scale))
			}
			overlayEquals(t, ls, applied, queries...)
		})
	}
}

// applyLUBMPatch perturbs a LUBM dataset: every 97th base triple is
// deleted, and for every predicate a "rewired" triple (first subject, last
// object) plus a triple introducing a brand-new entity is inserted. The
// patch is recorded in applied.
func applyLUBMPatch(t *testing.T, ls *live.Store, base *store.Store, applied tripleSet) {
	t.Helper()
	d := base.Dict()
	var dels, inss []rdf.Triple
	i := 0
	for et := range base.All() {
		if i%97 == 0 {
			dels = append(dels, rdf.Triple{S: d.Decode(et.S), P: d.Decode(et.P), O: d.Decode(et.O)})
		}
		i++
	}
	for _, p := range base.Predicates() {
		rel := base.Relation(p)
		if rel.Len() < 2 {
			continue
		}
		pred := d.Decode(p)
		inss = append(inss,
			// Rewire: connects existing entities that were not connected.
			rdf.Triple{S: d.Decode(rel.S[0]), P: pred, O: d.Decode(rel.O[rel.Len()-1])},
			// A brand-new entity entering the graph through this predicate.
			rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://live-test/new%d", p)), P: pred, O: d.Decode(rel.O[0])},
		)
	}
	applied.apply(t, ls, live.DeleteAll(dels))
	applied.apply(t, ls, live.InsertAll(inss))
	if ins, del := ls.DeltaSize(); ins == 0 || del == 0 {
		t.Fatalf("LUBM patch produced a one-sided delta: ins=%d del=%d", ins, del)
	}
}

// TestOverlayPreCancelled: with a pending delta, an already-cancelled
// context must surface promptly from Open or the first Next.
func TestOverlayPreCancelled(t *testing.T) {
	for _, shards := range shardCounts() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ls, _ := conformanceOverlay(t, 12, shards)
			q := query.MustParseSPARQL(overlayTriangle)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			forEachLiveEngine(t, ls, func(t *testing.T, e *live.Engine) {
				start := time.Now()
				cur, err := e.Open(q, engine.ExecOpts{Ctx: ctx})
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
		})
	}
}

// TestOverlayCancelMidEnumeration: cancelling mid-stream on the overlay
// path must stop the merge producer (and the wrapped engine's cursor
// beneath it) within a bounded number of rows.
func TestOverlayCancelMidEnumeration(t *testing.T) {
	ls, _ := conformanceOverlay(t, 48, 1) // ~100k triangle rows if run to completion
	q := query.MustParseSPARQL(overlayTriangle)
	forEachLiveEngine(t, ls, func(t *testing.T, e *live.Engine) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cur, err := e.Open(q, engine.ExecOpts{Ctx: ctx})
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
		const bound = 20000
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
				t.Fatalf("more than %d rows after cancellation — producer did not stop", bound)
			}
		}
	})
}

// TestOverlayExactTruncationAndOffset: MaxRows stays exact and Offset
// skips without changing the tail, on the correction-merge path.
func TestOverlayExactTruncationAndOffset(t *testing.T) {
	for _, shards := range shardCounts() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ls, applied := conformanceOverlay(t, 10, shards)
			q := query.MustParseSPARQL(overlayTriangle)
			// Ground truth from the rebuilt store's naive oracle.
			rebuilt := applied.build()
			oracle, err := engines.New("naive", rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.Collect(oracle.Open(q, engine.ExecOpts{}))
			if err != nil {
				t.Fatal(err)
			}
			total := want.Len()
			if total < 10 {
				t.Fatalf("conformance graph too sparse: %d triangle rows", total)
			}
			forEachLiveEngine(t, ls, func(t *testing.T, e *live.Engine) {
				exact, err := engine.Collect(e.Open(q, engine.ExecOpts{MaxRows: total}))
				if err != nil {
					t.Fatal(err)
				}
				if exact.Len() != total || exact.Truncated {
					t.Fatalf("exact cap: rows=%d truncated=%v, want %d/false", exact.Len(), exact.Truncated, total)
				}
				capped, err := engine.Collect(e.Open(q, engine.ExecOpts{MaxRows: total - 1}))
				if err != nil {
					t.Fatal(err)
				}
				if capped.Len() != total-1 || !capped.Truncated {
					t.Fatalf("cap-1: rows=%d truncated=%v, want %d/true", capped.Len(), capped.Truncated, total-1)
				}
				shifted, err := engine.Collect(e.Open(q, engine.ExecOpts{Offset: total - 5}))
				if err != nil {
					t.Fatal(err)
				}
				if shifted.Len() != 5 || shifted.Truncated {
					t.Fatalf("offset: rows=%d truncated=%v, want 5/false", shifted.Len(), shifted.Truncated)
				}
			})
		})
	}
}

// TestOverlayEarlyCloseStopsProducer: closing an overlay cursor early must
// stop the merge producer and the wrapped cursor beneath it; a rerun on the
// same engine still works, and pins drain to zero.
func TestOverlayEarlyCloseStopsProducer(t *testing.T) {
	ls, _ := conformanceOverlay(t, 12, 1)
	q := query.MustParseSPARQL(overlayTriangle)
	forEachLiveEngine(t, ls, func(t *testing.T, e *live.Engine) {
		cur, err := e.Open(q, engine.ExecOpts{})
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
		full, err := engine.Collect(e.Open(q, engine.ExecOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		if full.Len() == 0 {
			t.Fatal("rerun after early close returned nothing")
		}
	})
	if pins := ls.Stats().PinnedReaders; pins != 0 {
		t.Fatalf("%d cursors still pinned after all closes", pins)
	}
}
