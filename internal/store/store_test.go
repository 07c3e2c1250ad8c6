package store

import (
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/set"
)

func tr(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

func TestBuildPartitionsByPredicate(t *testing.T) {
	st := FromTriples([]rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s2", "p1", "o2"),
		tr("s1", "p2", "o1"),
	})
	if st.NumTriples() != 3 {
		t.Fatalf("NumTriples = %d", st.NumTriples())
	}
	if len(st.Predicates()) != 2 {
		t.Fatalf("Predicates = %v", st.Predicates())
	}
	r1 := st.RelationByIRI("p1")
	if r1 == nil || r1.Len() != 2 {
		t.Fatalf("p1 relation = %+v", r1)
	}
	r2 := st.RelationByIRI("p2")
	if r2 == nil || r2.Len() != 1 {
		t.Fatalf("p2 relation = %+v", r2)
	}
	if st.RelationByIRI("absent") != nil {
		t.Errorf("absent predicate should be nil")
	}
}

func TestDuplicateTriplesDropped(t *testing.T) {
	st := FromTriples([]rdf.Triple{
		tr("s", "p", "o"),
		tr("s", "p", "o"),
		tr("s", "p", "o"),
	})
	if st.NumTriples() != 1 {
		t.Errorf("NumTriples = %d, want 1", st.NumTriples())
	}
}

func TestStats(t *testing.T) {
	st := FromTriples([]rdf.Triple{
		tr("s1", "p", "o1"),
		tr("s1", "p", "o2"),
		tr("s2", "p", "o1"),
	})
	p, _ := st.Dict().LookupIRI("p")
	got := st.Stats(p)
	want := Stats{Rows: 3, DistinctS: 2, DistinctO: 2}
	if got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if st.Stats(9999) != (Stats{}) {
		t.Errorf("unknown predicate stats should be zero")
	}
	rel := st.Relation(p)
	if rel.DistinctS() != 2 || rel.DistinctO() != 2 {
		t.Errorf("relation distinct counts wrong")
	}
}

func TestTrieIndexesBothOrders(t *testing.T) {
	st := FromTriples([]rdf.Triple{
		tr("s1", "p", "o2"),
		tr("s1", "p", "o1"),
		tr("s2", "p", "o1"),
	})
	rel := st.RelationByIRI("p")
	d := st.Dict()
	s1, _ := d.LookupIRI("s1")
	s2, _ := d.LookupIRI("s2")
	o1, _ := d.LookupIRI("o1")
	o2, _ := d.LookupIRI("o2")

	so := rel.TrieSO(set.PolicyAuto)
	if so.Len() != 3 {
		t.Fatalf("trieSO tuples = %d", so.Len())
	}
	n, ok := so.Lookup(s1)
	if !ok {
		t.Fatalf("s1 missing from trieSO")
	}
	if got := n.Set().Values(); !reflect.DeepEqual(got, sortedPair(o1, o2)) {
		t.Errorf("s1 objects = %v", got)
	}
	os := rel.TrieOS(set.PolicyAuto)
	n, ok = os.Lookup(o1)
	if !ok {
		t.Fatalf("o1 missing from trieOS")
	}
	if got := n.Set().Values(); !reflect.DeepEqual(got, sortedPair(s1, s2)) {
		t.Errorf("o1 subjects = %v", got)
	}

	// Caching: same pointer on second call; different per policy.
	if rel.TrieSO(set.PolicyAuto) != so {
		t.Errorf("TrieSO not cached")
	}
	if rel.TrieSO(set.PolicyUintOnly) == so {
		t.Errorf("policies must not share cached tries")
	}
	if rel.TrieOS(set.PolicyUintOnly) == os {
		t.Errorf("policies must not share cached tries (OS)")
	}
}

func sortedPair(a, b uint32) []uint32 {
	if a < b {
		return []uint32{a, b}
	}
	return []uint32{b, a}
}

func TestLiteralObjectsSupported(t *testing.T) {
	st := FromTriples([]rdf.Triple{
		{S: rdf.NewIRI("s"), P: rdf.NewIRI("name"), O: rdf.NewLiteral("Alice")},
		{S: rdf.NewIRI("s"), P: rdf.NewIRI("name"), O: rdf.NewLiteral("Bob")},
	})
	rel := st.RelationByIRI("name")
	if rel.Len() != 2 {
		t.Fatalf("rows = %d", rel.Len())
	}
	id, ok := st.Dict().Lookup(rdf.NewLiteral("Alice"))
	if !ok {
		t.Fatalf("literal not in dictionary")
	}
	if got := st.Dict().Decode(id); got.Value != "Alice" || !got.IsLiteral() {
		t.Errorf("decode = %v", got)
	}
}

func TestStringSummary(t *testing.T) {
	st := FromTriples([]rdf.Triple{tr("s", "p", "o")})
	if st.String() == "" {
		t.Errorf("empty String()")
	}
	for tr := range st.All() {
		if tr.S != 0 {
			// First term registered is the subject.
			t.Errorf("unexpected encoding order: %+v", tr)
		}
	}
}

func TestEmptyStore(t *testing.T) {
	st := FromTriples(nil)
	if st.NumTriples() != 0 || len(st.Predicates()) != 0 {
		t.Errorf("empty store misbehaves: %v", st)
	}
}
