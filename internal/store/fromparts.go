package store

import (
	"slices"

	"repro/internal/dict"
	"repro/internal/set"
	"repro/internal/trie"
)

// RelationData is the pre-assembled image of one predicate relation used by
// FromParts: columns, statistics, and optionally prebuilt PolicyAuto tries.
// internal/segment produces these from mmap'd arenas.
type RelationData struct {
	Predicate dict.ID
	// S and O are the parallel columns (may be read-only mmap views).
	S, O []uint32
	// DistinctS and DistinctO are the precomputed statistics; assemble's
	// radix pass is skipped entirely.
	DistinctS, DistinctO int
	// SO and OS, when non-nil, pre-populate the trie cache slot for Policy
	// so first query never pays a build.
	SO, OS *trie.Trie
	// Policy is the layout policy the prebuilt tries were built under.
	// The zero value is set.PolicyAuto, which version-1 segments used;
	// version-2 segments record set.PolicyAdaptive.
	Policy set.Policy
}

// FromParts assembles a Store from pre-built components without the
// statistics pass or any column copying — the segment loading path: every
// slice may be a view into a read-only mapping, and the tries are the
// deserialized flat arenas. Each relation's columns must hold distinct
// rows, as a parent Store's do; they need not be sorted.
func FromParts(d *dict.Dictionary, rels []RelationData) *Store {
	st := &Store{
		dict:      d,
		relations: make(map[dict.ID]*Relation, len(rels)),
	}
	for _, rd := range rels {
		rel := &Relation{
			Predicate: rd.Predicate,
			S:         rd.S,
			O:         rd.O,
			distinctS: rd.DistinctS,
			distinctO: rd.DistinctO,
		}
		if rd.SO != nil {
			rel.so[policyIdx(rd.Policy)].v.Store(rd.SO)
		}
		if rd.OS != nil {
			rel.os[policyIdx(rd.Policy)].v.Store(rd.OS)
		}
		st.relations[rd.Predicate] = rel
		st.predicates = append(st.predicates, rd.Predicate)
		st.rows += rel.Len()
	}
	slices.Sort(st.predicates)
	return st
}
