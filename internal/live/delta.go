package live

import (
	"maps"
	"slices"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
)

// layout is the one set-layout policy live reads tries under — the policy
// the serving engine queries with and segment files store, so a trie live
// descends is the cached one a query or a segment write already built.
const layout = set.PolicyAdaptive

// delta is one immutable snapshot of the mutable overlay relative to a base
// store, kept in fully netted form as two small stores over the shared
// dictionary:
//
//   - ins holds triples present in the overlay but absent from the base;
//   - del holds base triples currently deleted (tombstones).
//
// The two are disjoint by construction (a tombstoned triple is in the base,
// an inserted one is not), so the overlay is exactly (base \ del) ∪ ins and
// re-inserting a tombstoned triple just clears its tombstone. Being stores,
// they are indexed the way the base is — by the lazily built, cached tries
// of store.Relation and store.TripleTrie — and nothing else indexes them:
// membership is Store.Has and enumeration is the overlay evaluator's scan.
// Like every store, each side holds its rows sorted and deduplicated, so a
// delta's contents do not depend on the order its operations arrived in.
// Writers build a new delta per applied patch under the live store's writer
// lock; readers share snapshots freely and never see a half-applied patch.
type delta struct {
	ins, del *store.Store
}

func newDelta(dc *dict.Dictionary, ins, del []store.Triple) *delta {
	return &delta{ins: store.FromEncoded(dc, ins), del: store.FromEncoded(dc, del)}
}

func (d *delta) empty() bool { return d.size() == 0 }

// size returns the number of pending operations (inserts + tombstones).
func (d *delta) size() int { return d.ins.NumTriples() + d.del.NumTriples() }

// ApplyResult reports one patch's effect. Counts are per operation, in
// order: an insert-then-delete of the same absent triple within one batch
// counts one Inserted and one Deleted and leaves the overlay unchanged.
type ApplyResult struct {
	// Inserted counts operations that made an absent triple present.
	Inserted int
	// Deleted counts operations that made a present triple absent.
	Deleted int
	// Noops counts operations without effect: duplicate inserts, deletes of
	// absent triples.
	Noops int
	// DeltaInserts and DeltaTombstones are the delta's netted sizes after
	// the patch.
	DeltaInserts    int
	DeltaTombstones int
	// Epoch is the base epoch the patch landed on.
	Epoch uint64
}

// apply nets patch into a fresh delta snapshot over the immutable base; a
// patch without effect returns d itself. Encoding new terms goes through
// base's (concurrency-safe) dictionary; deletes resolve terms with Lookup
// only, so deleting never grows the dictionary.
func (d *delta) apply(patch Patch, base *store.Store) (*delta, ApplyResult) {
	dc := base.Dict()
	ins := workingSet(d.ins, len(patch.Ops))
	del := workingSet(d.del, len(patch.Ops))
	var res ApplyResult
	for _, op := range patch.Ops {
		if op.Delete {
			t, ok := lookupTriple(dc, op.Triple)
			if !ok {
				res.Noops++ // a term is not even in the dictionary: absent
				continue
			}
			if _, present := ins[t]; present {
				delete(ins, t)
				res.Deleted++
				continue
			}
			if _, dead := del[t]; !dead && base.Has(t, layout) {
				del[t] = struct{}{}
				res.Deleted++
				continue
			}
			res.Noops++
			continue
		}
		s, p, o := dc.EncodeTriple(op.Triple)
		t := store.Triple{S: s, P: p, O: o}
		if _, dead := del[t]; dead {
			delete(del, t)
			res.Inserted++
			continue
		}
		if base.Has(t, layout) {
			res.Noops++ // present in the base and not tombstoned
			continue
		}
		if _, present := ins[t]; present {
			res.Noops++
			continue
		}
		ins[t] = struct{}{}
		res.Inserted++
	}
	nd := d
	if res.Inserted+res.Deleted > 0 {
		nd = newDelta(dc, slices.Collect(maps.Keys(ins)), slices.Collect(maps.Keys(del)))
	}
	res.DeltaInserts = nd.ins.NumTriples()
	res.DeltaTombstones = nd.del.NumTriples()
	return nd, res
}

// workingSet is apply's mutable copy of one side of the delta, sized for
// extra additions.
func workingSet(st *store.Store, extra int) map[store.Triple]struct{} {
	m := make(map[store.Triple]struct{}, st.NumTriples()+extra)
	for t := range st.All() {
		m[t] = struct{}{}
	}
	return m
}

// lookupTriple resolves a parsed triple against the dictionary without
// assigning new ids; ok is false when any term is unregistered (the triple
// cannot be present anywhere).
func lookupTriple(dc *dict.Dictionary, t rdf.Triple) (store.Triple, bool) {
	s, ok := dc.Lookup(t.S)
	if !ok {
		return store.Triple{}, false
	}
	p, ok := dc.Lookup(t.P)
	if !ok {
		return store.Triple{}, false
	}
	o, ok := dc.Lookup(t.O)
	if !ok {
		return store.Triple{}, false
	}
	return store.Triple{S: s, P: p, O: o}, true
}
