package shard

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/naive"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// chainStore builds a deterministic multi-predicate graph: p edges i→(i*7+3)%n,
// q edges i→(i+1)%n, r edges i→(i*3+1)%n over n subjects.
func chainStore(n int) *store.Store {
	b := store.NewBuilder()
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://s/n%d", i)) }
	p := rdf.NewIRI("http://s/p")
	q := rdf.NewIRI("http://s/q")
	r := rdf.NewIRI("http://s/r")
	for i := 0; i < n; i++ {
		b.Add(rdf.Triple{S: node(i), P: p, O: node((i*7 + 3) % n)})
		b.Add(rdf.Triple{S: node(i), P: q, O: node((i + 1) % n)})
		b.Add(rdf.Triple{S: node(i), P: r, O: node((i*3 + 1) % n)})
	}
	return b.Build()
}

func TestPartitionCounts(t *testing.T) {
	st := chainStore(100)
	for _, n := range []int{1, 2, 3, 7, 16} {
		p, err := Partition(st, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumShards() != n {
			t.Fatalf("NumShards = %d, want %d", p.NumShards(), n)
		}
		ownedTotal := 0
		for i, s := range p.Stats() {
			ownedTotal += s.Owned
			if got := p.Shard(i).NumTriples(); got != s.Owned+s.Replicated {
				t.Fatalf("n=%d shard %d: NumTriples=%d, owned+replicated=%d", n, i, got, s.Owned+s.Replicated)
			}
		}
		if ownedTotal != st.NumTriples() {
			t.Fatalf("n=%d: owned sum %d != total %d (triples lost or duplicated)", n, ownedTotal, st.NumTriples())
		}
		// Every triple is owned by exactly its subject's shard, and replicas
		// live only at the object's shard.
		for tr := range st.All() {
			own := ShardOf(tr.S, n)
			if !storeHas(p.Shard(own), tr) {
				t.Fatalf("n=%d: triple %v missing from owner shard %d", n, tr, own)
			}
			for i := 0; i < n; i++ {
				has := storeHas(p.Shard(i), tr)
				wantHere := i == own || i == ShardOf(tr.O, n)
				if has != wantHere {
					t.Fatalf("n=%d shard %d: triple %v presence=%v, want %v", n, i, tr, has, wantHere)
				}
			}
		}
	}
	if _, err := Partition(st, 0); err == nil {
		t.Fatal("Partition(st, 0) succeeded, want error")
	}
}

func storeHas(s *store.Store, tr store.Triple) bool {
	for got := range s.All() {
		if got == tr {
			return true
		}
	}
	return false
}

func TestPartitionEmptyStore(t *testing.T) {
	st := store.NewBuilder().Build()
	p, err := Partition(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if p.Shard(i).NumTriples() != 0 {
			t.Fatalf("shard %d non-empty", i)
		}
	}
}

func TestDecomposeShapes(t *testing.T) {
	parse := func(s string) []query.Pattern { return query.MustParseSPARQL(s).Patterns }
	cases := []struct {
		name   string
		q      string
		groups int
	}{
		{"subject star", `SELECT ?a ?b WHERE { ?x <p> ?a . ?x <q> ?b . ?x <r> ?c }`, 1},
		{"object-subject path", `SELECT ?x ?z WHERE { ?x <p> ?y . ?y <p> ?z }`, 1},
		{"object-object join", `SELECT ?a ?b WHERE { ?a <p> ?v . ?b <q> ?v }`, 1},
		{"triangle", `SELECT ?x ?y ?z WHERE { ?x <p> ?y . ?y <p> ?z . ?x <p> ?z }`, 2},
		{"three-hop path", `SELECT ?w ?z WHERE { ?w <p> ?x . ?x <p> ?y . ?y <p> ?z }`, 2},
		{"single pattern", `SELECT ?s ?o WHERE { ?s ?p ?o }`, 1},
	}
	for _, c := range cases {
		got := decompose(parse(c.q))
		if len(got) != c.groups {
			t.Errorf("%s: %d groups, want %d", c.name, len(got), c.groups)
		}
		// Every pattern lands in exactly one group, and each group's root is
		// in the S or O position of each of its patterns.
		total := 0
		for _, g := range got {
			total += len(g.pats)
			for _, pat := range g.pats {
				if nodeKey(pat.S) != nodeKey(g.root) && nodeKey(pat.O) != nodeKey(g.root) {
					t.Errorf("%s: root %v not in S/O of %v", c.name, g.root, pat)
				}
			}
		}
		if total != len(parse(c.q)) {
			t.Errorf("%s: %d patterns covered, want %d", c.name, total, len(parse(c.q)))
		}
	}
}

// TestShardedMatchesUnshardedNaive is the in-package smoke check (the full
// cross-engine suite lives in conformance_test.go): sharded naive equals
// unsharded naive on representative query shapes at several shard counts,
// both scattered and as the cost model routes them.
func TestShardedMatchesUnshardedNaive(t *testing.T) {
	st := chainStore(60)
	base := naive.New(st)
	queries := []string{
		`SELECT ?a ?b WHERE { ?x <http://s/p> ?a . ?x <http://s/q> ?b }`,
		`SELECT ?x ?z WHERE { ?x <http://s/p> ?y . ?y <http://s/q> ?z }`,
		`SELECT DISTINCT ?a WHERE { ?x <http://s/p> ?a . ?x <http://s/q> ?b }`,
		`SELECT ?a ?b WHERE { ?a <http://s/p> ?v . ?b <http://s/q> ?v }`,
		`SELECT ?x ?y ?z WHERE { ?x <http://s/p> ?y . ?y <http://s/p> ?z . ?x <http://s/q> ?z }`,
		`SELECT ?w ?z WHERE { ?w <http://s/p> ?x . ?x <http://s/q> ?y . ?y <http://s/r> ?z }`,
		`SELECT ?s ?o WHERE { ?s ?p ?o }`,
		`SELECT ?a WHERE { <http://s/n3> <http://s/p> ?v . ?a <http://s/r> ?v }`,
	}
	for _, text := range queries {
		q := query.MustParseSPARQL(text)
		want, err := engine.Collect(base.Open(q, engine.ExecOpts{}))
		if err != nil {
			t.Fatalf("%s: unsharded: %v", text, err)
		}
		for _, n := range []int{1, 2, 5} {
			for _, forced := range []bool{false, true} {
				_, sh := naiveSharded(t, st, n)
				sh.noDecline = forced
				got, err := engine.Collect(sh.Open(q, engine.ExecOpts{}))
				if err != nil {
					t.Fatalf("%s n=%d forced=%v: %v", text, n, forced, err)
				}
				if got.Canonical() != want.Canonical() {
					t.Errorf("%s n=%d forced=%v: %d rows, want %d", text, n, forced, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestConstantRootRoutesToOneShard: a query whose patterns all share a
// constant subject, when scattered, runs on the owner shard only. (On this
// fixture the cost model would run it unsharded; noDecline forces the
// scatter.)
func TestConstantRootRoutesToOneShard(t *testing.T) {
	st := chainStore(30)
	_, sh := naiveSharded(t, st, 5)
	sh.noDecline = true
	q := query.MustParseSPARQL(`SELECT ?a ?b WHERE { <http://s/n7> <http://s/p> ?a . <http://s/n7> <http://s/q> ?b }`)
	got, err := engine.Collect(sh.Open(q, engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("rows = %d, want 1", got.Len())
	}
	active := 0
	for _, s := range sh.part.Stats() {
		if s.Delivered > 0 {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("delivered from %d shards, want 1", active)
	}
	// Unknown constant: empty result, no error.
	q = query.MustParseSPARQL(`SELECT ?a WHERE { <http://s/unknown> <http://s/p> ?a }`)
	got, err = engine.Collect(sh.Open(q, engine.ExecOpts{}))
	if err != nil || got.Len() != 0 {
		t.Fatalf("unknown constant: rows=%d err=%v, want 0/nil", got.Len(), err)
	}
}

// TestFullyConstantPatternFilters: an all-constant pattern acts as an
// existence filter.
func TestFullyConstantPatternFilters(t *testing.T) {
	st := chainStore(10)
	for _, forced := range []bool{false, true} {
		_, sh := naiveSharded(t, st, 3)
		sh.noDecline = forced
		// n0 -p-> n3 exists (0*7+3 = 3).
		hit := query.MustParseSPARQL(`SELECT ?a WHERE { <http://s/n0> <http://s/p> <http://s/n3> . ?x <http://s/q> ?a }`)
		got, err := engine.Collect(sh.Open(hit, engine.ExecOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 10 {
			t.Fatalf("forced=%v existing filter: rows=%d, want 10", forced, got.Len())
		}
		miss := query.MustParseSPARQL(`SELECT ?a WHERE { <http://s/n0> <http://s/p> <http://s/n4> . ?x <http://s/q> ?a }`)
		got, err = engine.Collect(sh.Open(miss, engine.ExecOpts{}))
		if err != nil || got.Len() != 0 {
			t.Fatalf("forced=%v failing filter: rows=%d err=%v, want 0/nil", forced, got.Len(), err)
		}
	}
}
