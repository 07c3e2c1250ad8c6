package segment

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/set"
)

// v2Triples is the source of testdata/v2.seg, which the version-2 writer
// produced from store.FromTriples(v2Triples()), in this order.
// The first knows rows arrive out of (S, O) order, so the version-2 S and
// O columns are in arrival order, not sorted; the hub's twenty consecutive
// objects make one bitset node at level 1 of knows' SO trie.
func v2Triples() []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	knows := iri("knows")
	ts := []rdf.Triple{
		{S: iri("n05"), P: knows, O: iri("hub")},
		{S: iri("n01"), P: knows, O: iri("n03")},
		{S: rdf.NewBlank("b0"), P: knows, O: iri("n02")},
		{S: iri("hub"), P: iri("name"), O: rdf.NewLangLiteral("Hub", "en")},
		{S: iri("n01"), P: iri("age"), O: rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
	}
	for i := 0; i < 20; i++ {
		ts = append(ts, rdf.Triple{S: iri("hub"), P: knows, O: iri(fmt.Sprintf("m%02d", i))})
	}
	return append(ts, rdf.Triple{S: iri("n00"), P: iri("name"), O: rdf.NewLiteral("zero")})
}

// TestOpenVersion2 opens a segment written by the version-2 writer, whose
// triple table the loader skips and whose columns are in arrival order, and
// checks it against the triples it was written from: the count, every
// relation's rows, and point lookups through the prebuilt SO and OS tries,
// one of whose nodes is a bitset.
func TestOpenVersion2(t *testing.T) {
	l, err := Open("testdata/v2.seg")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	st, d := l.Store, l.Store.Dict()
	src := v2Triples()
	if st.NumTriples() != len(src) {
		t.Fatalf("NumTriples = %d, want %d", st.NumTriples(), len(src))
	}
	want := map[uint32][][2]uint32{}
	for _, tr := range src {
		s, okS := d.Lookup(tr.S)
		p, okP := d.Lookup(tr.P)
		o, okO := d.Lookup(tr.O)
		if !okS || !okP || !okO {
			t.Fatalf("%v: a term is missing from the dictionary", tr)
		}
		want[p] = append(want[p], [2]uint32{s, o})
	}
	if len(st.Predicates()) != len(want) {
		t.Fatalf("%d relations, want %d", len(st.Predicates()), len(want))
	}
	bitsets := 0
	for p, rows := range want {
		rel := st.Relation(p)
		if rel == nil {
			t.Fatalf("relation %d missing", p)
		}
		var got [][2]uint32
		for i := range rel.S {
			got = append(got, [2]uint32{rel.S[i], rel.O[i]})
		}
		if !slices.Equal(got, rows) {
			t.Fatalf("relation %d rows = %v, want %v (arrival order)", p, got, rows)
		}
		so, os := rel.TrieSO(set.PolicyAdaptive), rel.TrieOS(set.PolicyAdaptive)
		for _, r := range rows {
			if _, ok := so.Lookup(r[0], r[1]); !ok {
				t.Fatalf("relation %d: (%d, %d) missing from the SO trie", p, r[0], r[1])
			}
			if _, ok := os.Lookup(r[1], r[0]); !ok {
				t.Fatalf("relation %d: (%d, %d) missing from the OS trie", p, r[1], r[0])
			}
		}
		if so.Len() != len(rows) || os.Len() != len(rows) {
			t.Fatalf("relation %d: tries hold %d and %d tuples, want %d", p, so.Len(), os.Len(), len(rows))
		}
		for _, ld := range so.Export() {
			bitsets += int(ld.Stats.BitsetNodes)
		}
	}
	if bitsets != 1 {
		t.Fatalf("%d bitset nodes in the SO tries, want 1", bitsets)
	}
	hub, _ := d.Lookup(rdf.NewIRI("http://ex/hub"))
	knows := st.RelationByIRI("http://ex/knows").TrieSO(set.PolicyAdaptive)
	if n, ok := knows.Lookup(hub); !ok || n.Set().Len() != 20 {
		t.Fatalf("hub's knows set: found=%v", ok)
	}
	if _, ok := knows.Lookup(hub, hub); ok {
		t.Fatal("hub knows itself in the loaded trie")
	}
}
