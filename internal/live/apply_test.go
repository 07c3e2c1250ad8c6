package live

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestNoopPatchPublishesNothing: a patch whose every operation is a no-op
// (duplicate inserts, deletes of absent triples) must leave the published
// state — the very pointer — and the delta sizes as they were.
func TestNoopPatchPublishesNothing(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	tr := func(s, p, o string) rdf.Triple { return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)} }
	ls, err := NewStore(store.FromTriples([]rdf.Triple{tr("a", "p", "b"), tr("b", "p", "c")}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Apply(Patch{Ops: []Op{{Triple: tr("c", "p", "d")}, {Delete: true, Triple: tr("a", "p", "b")}}}); err != nil {
		t.Fatal(err)
	}
	before := ls.cur.Load()
	res, err := ls.Apply(Patch{Ops: []Op{
		{Triple: tr("b", "p", "c")},                // in the base
		{Triple: tr("c", "p", "d")},                // already inserted
		{Delete: true, Triple: tr("a", "p", "b")},  // already tombstoned
		{Delete: true, Triple: tr("a", "p", "c")},  // never present
		{Delete: true, Triple: tr("zz", "p", "a")}, // not even in the dictionary
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || res.Deleted != 0 || res.Noops != 5 || res.DeltaInserts != 1 || res.DeltaTombstones != 1 {
		t.Fatalf("all-noop patch reported %+v", res)
	}
	if after := ls.cur.Load(); after != before {
		t.Fatal("all-noop patch published a new state")
	}
	if ins, del := ls.DeltaSize(); ins != 1 || del != 1 {
		t.Fatalf("DeltaSize = %d, %d after an all-noop patch, want 1, 1", ins, del)
	}
}
