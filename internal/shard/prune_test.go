package shard

// White-box tests for the statistics-pruned scatter planner: the
// fully-constant existence check, deterministic pruning of shards that
// provably cannot contribute (absent predicates, missing constants, empty
// owner shards), and a randomized property test proving pruned and unpruned
// scatter agree — the two engines share one Partitioned, so the oracle runs
// over the exact partition the pruned engine plans against. These fixtures
// are small enough that the cost model would run them unsharded, so the
// engines here force the scatter (noDecline).

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/naive"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// naiveSharded partitions st and wraps naive engines in the scatter layer.
// The engine declines to scatter as in production; tests that exercise the
// scatter set noDecline.
func naiveSharded(t *testing.T, st *store.Store, n int) (*Partitioned, *Engine) {
	t.Helper()
	p, err := Partition(st, n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p, "naive", func(s *store.Store) (engine.Engine, error) {
		return naive.New(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, e
}

// TestFullyConstantExistenceCheck: a fully-constant pattern is one trie
// descent on its subject's owner shard. Present triples are found, absent
// ones — all three terms known, or one missing from the dictionary — are
// not, and a query carrying an absent one compiles to the empty plan
// without opening a shard.
func TestFullyConstantExistenceCheck(t *testing.T) {
	st := pruneStore(64)
	p, e := naiveSharded(t, st, 8)
	pat := func(s, pr, o string) query.Pattern {
		return query.Pattern{
			S: query.Node{Term: rdf.NewIRI(s)},
			P: query.Node{Term: rdf.NewIRI(pr)},
			O: query.Node{Term: rdf.NewIRI(o)},
		}
	}
	cases := []struct {
		name string
		pat  query.Pattern
		want bool
	}{
		{"present", pat("http://z/n0", "http://z/rare", "http://z/n3"), true},
		{"present-common", pat("http://z/n63", "http://z/common", "http://z/n0"), true},
		{"absent-known-terms", pat("http://z/n3", "http://z/rare", "http://z/n0"), false},
		{"absent-wrong-predicate", pat("http://z/n0", "http://z/common", "http://z/n3"), false},
		{"unknown-term", pat("http://z/n0", "http://z/rare", "http://z/missing"), false},
	}
	for _, c := range cases {
		if got := e.hasTriple(c.pat); got != c.want {
			t.Errorf("%s: hasTriple = %v, want %v", c.name, got, c.want)
		}
	}

	// Through a query: the filter passes or empties the whole result.
	e.noDecline = true
	hit := query.MustParseSPARQL(`SELECT ?a WHERE { <http://z/n0> <http://z/rare> <http://z/n3> . ?a <http://z/rare> ?b }`)
	got, err := engine.Collect(e.Open(hit, engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("present filter: %d rows, want 2", got.Len())
	}
	miss := query.MustParseSPARQL(`SELECT ?a WHERE { <http://z/n3> <http://z/rare> <http://z/n0> . ?a <http://z/rare> ?b }`)
	if ep, err := e.Explain(miss); err != nil || ep.Kind != "empty" {
		t.Fatalf("absent filter: plan %+v err %v, want kind empty", ep, err)
	}
	before := p.Stats()
	got, err = engine.Collect(e.Open(miss, engine.ExecOpts{}))
	if err != nil || got.Len() != 0 {
		t.Fatalf("absent filter: rows=%d err=%v, want 0/nil", got.Len(), err)
	}
	for i, s := range p.Stats() {
		if s.Delivered != before[i].Delivered {
			t.Fatalf("absent filter: shard %d delivered rows", i)
		}
	}
}

// pruneStore holds a common predicate on every subject and a rare predicate
// on two subjects only, so at high shard counts most shards have no rare
// triples at all.
func pruneStore(subjects int) *store.Store {
	b := store.NewBuilder()
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://z/n%d", i)) }
	common := rdf.NewIRI("http://z/common")
	rare := rdf.NewIRI("http://z/rare")
	for i := 0; i < subjects; i++ {
		b.Add(rdf.Triple{S: node(i), P: common, O: node((i + 1) % subjects)})
	}
	b.Add(rdf.Triple{S: node(0), P: rare, O: node(3)})
	b.Add(rdf.Triple{S: node(1), P: rare, O: node(4)})
	return b.Build()
}

// TestPrunedScatterSkipsEmptyShards: a query over a predicate present on
// only a few shards scatters to those shards alone — the pruning counter
// moves and the result still matches the unsharded oracle.
func TestPrunedScatterSkipsEmptyShards(t *testing.T) {
	st := pruneStore(64)
	p, e := naiveSharded(t, st, 8)
	e.noDecline = true
	base := naive.New(st)

	q := query.MustParseSPARQL(`SELECT ?a ?b WHERE { ?a <http://z/rare> ?b }`)
	before := p.PlanStats().ShardsPruned
	got, err := engine.Collect(e.Open(q, engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Collect(base.Open(q, engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("pruned scatter differs from oracle: %d vs %d rows", got.Len(), want.Len())
	}
	if got.Len() != 2 {
		t.Fatalf("rare-predicate query: %d rows, want 2", got.Len())
	}
	pruned := p.PlanStats().ShardsPruned - before
	if pruned == 0 {
		t.Fatal("no shards pruned for a two-triple predicate at 8 shards")
	}
	// Two rare triples touch at most 4 shards (two owners, two object
	// replicas), so at least 4 of the 8 scatter targets must be pruned.
	if pruned < 4 {
		t.Fatalf("only %d shards pruned, want >= 4", pruned)
	}
}

// TestPrunedScatterProvablyEmpty: queries the statistics prove empty —
// an absent predicate, a constant missing from the dictionary, and a
// constant root whose owner shard has no matches — return an empty cursor
// without opening any shard sub-query.
func TestPrunedScatterProvablyEmpty(t *testing.T) {
	st := pruneStore(64)
	p, e := naiveSharded(t, st, 8)

	cases := map[string]string{
		"absent-predicate": `SELECT ?a ?b WHERE { ?a <http://z/nope> ?b }`,
		"missing-constant": `SELECT ?b WHERE { <http://z/missing> <http://z/common> ?b }`,
		"empty-owner":      `SELECT ?b WHERE { <http://z/n7> <http://z/rare> ?b }`,
	}
	for name, text := range cases {
		q := query.MustParseSPARQL(text)
		cur, err := e.Open(q, engine.ExecOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cur.Vars()) != len(q.Select) {
			t.Fatalf("%s: empty cursor vars %v, want %v", name, cur.Vars(), q.Select)
		}
		if _, err := cur.Next(); err != io.EOF {
			t.Fatalf("%s: Next = %v, want io.EOF", name, err)
		}
		cur.Close()
	}
	// n7 exists but has no rare edges: its owner shard's profile is empty,
	// so the constant-rooted group prunes rather than opening the shard.
	if p.PlanStats().ShardsPruned == 0 {
		t.Fatal("provably-empty queries recorded no pruning")
	}
}

// TestPrunePropertyRandomStores: for seeded random datasets and shard
// counts, an Engine with pruning and one with noPrune over the SAME
// partition return identical canonical results on shapes that exercise
// single groups, joins, constants, and DISTINCT — and across the rounds the
// pruned engine actually pruned something (the rare predicate guarantees
// empty shards exist).
func TestPrunePropertyRandomStores(t *testing.T) {
	shapes := []string{
		`SELECT ?a ?b WHERE { ?a <http://z/rare> ?b }`,
		`SELECT ?a ?b WHERE { ?x <http://z/rare> ?a . ?x <http://z/p0> ?b }`,
		`SELECT ?x ?z WHERE { ?x <http://z/p0> ?y . ?y <http://z/rare> ?z }`,
		`SELECT ?a ?d WHERE { ?a <http://z/p0> ?b . ?b <http://z/rare> ?c . ?c <http://z/p1> ?d }`,
		`SELECT DISTINCT ?b WHERE { ?a <http://z/rare> ?v . ?b <http://z/p1> ?v }`,
		`SELECT ?b WHERE { <http://z/n1> <http://z/p0> ?b }`,
	}
	var totalPruned int64
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := store.NewBuilder()
		node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://z/n%d", i)) }
		preds := []rdf.Term{rdf.NewIRI("http://z/p0"), rdf.NewIRI("http://z/p1"), rdf.NewIRI("http://z/p2")}
		for i := 0; i < 250; i++ {
			b.Add(rdf.Triple{
				S: node(rng.Intn(40)),
				P: preds[rng.Intn(len(preds))],
				O: node(rng.Intn(40)),
			})
		}
		rare := rdf.NewIRI("http://z/rare")
		for i := 0; i < 3; i++ {
			b.Add(rdf.Triple{S: node(rng.Intn(40)), P: rare, O: node(rng.Intn(40))})
		}
		st := b.Build()

		for _, n := range []int{2, 7} {
			p, pruned := naiveSharded(t, st, n)
			unpruned, err := NewEngine(p, "naive", func(s *store.Store) (engine.Engine, error) {
				return naive.New(s), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			unpruned.noPrune = true
			pruned.noDecline, unpruned.noDecline = true, true

			for _, text := range shapes {
				q := query.MustParseSPARQL(text)
				want, err := engine.Collect(unpruned.Open(q, engine.ExecOpts{}))
				if err != nil {
					t.Fatalf("seed=%d n=%d noPrune %s: %v", seed, n, text, err)
				}
				got, err := engine.Collect(pruned.Open(q, engine.ExecOpts{}))
				if err != nil {
					t.Fatalf("seed=%d n=%d pruned %s: %v", seed, n, text, err)
				}
				if got.Canonical() != want.Canonical() {
					t.Fatalf("seed=%d n=%d %s: pruned %d rows != unpruned %d rows",
						seed, n, text, got.Len(), want.Len())
				}
			}
			totalPruned += p.PlanStats().ShardsPruned
		}
	}
	if totalPruned == 0 {
		t.Fatal("property rounds never pruned a shard — the oracle proved nothing")
	}
}
