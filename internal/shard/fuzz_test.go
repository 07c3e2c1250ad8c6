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

// FuzzShardRouting drives the partitioning invariants with random triples
// and a random shard count:
//
//   - every triple lands in exactly one shard as owned (the subject's),
//   - per-shard owned counts sum to the parent's triple count (no loss, no
//     double-ownership),
//   - replicas exist only on the object's shard, so the union of shards
//     deduplicates back to the parent exactly, and
//   - replicated triples dedup in the merge: a sharded query whose plan
//     touches replicated data (an object-rooted group and a merge-layer
//     join) returns the same multiset as the unsharded engine.
func FuzzShardRouting(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2))
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2}, uint8(7))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(1))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8) {
		n := int(nRaw)%8 + 1
		if len(data) > 192 {
			data = data[:192] // bound the dataset so the naive oracle stays cheap
		}
		b := store.NewBuilder()
		node := func(v byte) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://f/n%d", v%32)) }
		pred := func(v byte) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://f/p%d", v%4)) }
		for i := 0; i+2 < len(data); i += 3 {
			b.Add(rdf.Triple{S: node(data[i]), P: pred(data[i+1]), O: node(data[i+2])})
		}
		st := b.Build()
		p, err := Partition(st, n)
		if err != nil {
			t.Fatal(err)
		}

		ownedSum := 0
		for _, s := range p.Stats() {
			ownedSum += s.Owned
		}
		if ownedSum != st.NumTriples() {
			t.Fatalf("owned sum %d != %d triples (loss or double-ownership)", ownedSum, st.NumTriples())
		}

		parent := make(map[store.Triple]bool, st.NumTriples())
		for tr := range st.All() {
			parent[tr] = true
		}
		union := map[store.Triple]bool{}
		for i := 0; i < n; i++ {
			seenHere := map[store.Triple]bool{}
			for tr := range p.Shard(i).All() {
				if !parent[tr] {
					t.Fatalf("shard %d holds foreign triple %v", i, tr)
				}
				if seenHere[tr] {
					t.Fatalf("shard %d holds duplicate triple %v", i, tr)
				}
				seenHere[tr] = true
				if own, rep := ShardOf(tr.S, n), ShardOf(tr.O, n); i != own && i != rep {
					t.Fatalf("shard %d holds %v, owned by %d replicated to %d", i, tr, own, rep)
				}
				union[tr] = true
			}
		}
		if len(union) != st.NumTriples() {
			t.Fatalf("shard union %d triples != parent %d", len(union), st.NumTriples())
		}

		if st.NumTriples() == 0 {
			return
		}
		// Replicated data dedups in the merge: compare sharded vs unsharded
		// on a replication-heavy shape (object-subject chain: single
		// object-rooted group) and a join shape (two chains). The scatter is
		// forced (fuzzed stores are tiny, so the cost model would decline
		// it); the engine as the cost model routes it must agree too.
		build := func(s *store.Store) (engine.Engine, error) { return naive.New(s), nil }
		sh, err := NewEngine(p, "naive", build)
		if err != nil {
			t.Fatal(err)
		}
		sh.noDecline = true
		routed, err := NewEngine(p, "naive", build)
		if err != nil {
			t.Fatal(err)
		}
		base := naive.New(st)
		for _, text := range []string{
			`SELECT ?a ?b ?c WHERE { ?a ?p ?b . ?b ?q ?c }`,
			`SELECT ?a ?c WHERE { ?a ?p ?b . ?b ?q ?c . ?c ?r ?d }`,
			`SELECT DISTINCT ?b WHERE { ?a ?p ?b . ?b ?q ?c }`,
		} {
			q := query.MustParseSPARQL(text)
			want, err := engine.Collect(base.Open(q, engine.ExecOpts{}))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []*Engine{sh, routed} {
				got, err := engine.Collect(e.Open(q, engine.ExecOpts{}))
				if err != nil {
					t.Fatal(err)
				}
				if got.Canonical() != want.Canonical() {
					t.Fatalf("n=%d forced=%v %s: sharded %d rows != unsharded %d rows", n, e.noDecline, text, got.Len(), want.Len())
				}
			}
		}
	})
}
