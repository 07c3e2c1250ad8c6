// Package store implements the vertically partitioned RDF storage layer
// shared by every engine in this repository (§IV-A2 of the paper: "we store
// and process the RDF data in a vertically partitioned manner as this has
// been shown to be superior to storing the data as triples").
//
// A Store groups dictionary-encoded triples by predicate: each predicate
// owns a two-column (subject, object) relation, and those relations are the
// only copy of the data. Engines that want whole triples (the RDF-3X
// baseline's six permutation indexes, variable-predicate scans) walk them
// through All. Each relation carries its statistics for cardinality
// estimation.
package store

import (
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/radix"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/trie"
)

// trieSlot is a once-per-index build latch: a lock-free fast path for the
// served case plus a per-slot mutex so exactly one goroutine builds while
// waiters of the *same* index block — and nobody else. Independent slots
// build and serve concurrently: a slow (S,O) build no longer holds up a
// reader that needs the already-cached (O,S) trie or the other layout
// policy's cache, which mattered the moment trie builds moved onto the
// Compact() serving path.
type trieSlot struct {
	v  atomic.Pointer[trie.Trie]
	mu sync.Mutex
}

// get returns the slot's trie, building it via build on first use.
func (sl *trieSlot) get(build func() *trie.Trie) *trie.Trie {
	if t := sl.v.Load(); t != nil {
		return t
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if t := sl.v.Load(); t != nil {
		return t
	}
	t := build()
	sl.v.Store(t)
	return t
}

// peek returns the trie if it has been built, without triggering a build —
// memory accounting reads this so /stats never forces index construction.
func (sl *trieSlot) peek() *trie.Trie { return sl.v.Load() }

// numPolicies is the number of layout-policy cache slots per index.
const numPolicies = 3

// policyIdx maps a layout policy to its cache slot index.
func policyIdx(p set.Policy) int {
	switch p {
	case set.PolicyUintOnly:
		return 1
	case set.PolicyAdaptive:
		return 2
	}
	return 0
}

// Relation is one vertically partitioned predicate table: parallel subject
// and object columns, one row per distinct triple. Relations assembled in
// memory hold their rows sorted by (S, O); relations loaded from version 1
// and 2 segment files hold them in arrival order, so no reader may assume
// the columns are sorted.
type Relation struct {
	Predicate dict.ID
	S, O      []uint32

	distinctS, distinctO int

	// Lazily built trie indexes over (S,O) and (O,S), one latch per
	// (order, policy) slot so independent indexes build concurrently.
	so, os [numPolicies]trieSlot
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.S) }

// DistinctS returns the number of distinct subjects.
func (r *Relation) DistinctS() int { return r.distinctS }

// DistinctO returns the number of distinct objects.
func (r *Relation) DistinctO() int { return r.distinctO }

// TrieSO returns the (subject, object) trie for this relation, building and
// caching it on first use. The policy chooses set layouts; the two policies
// are cached independently so ablations do not interfere. Safe for
// concurrent use; concurrent callers of other slots never block.
func (r *Relation) TrieSO(policy set.Policy) *trie.Trie {
	return r.so[policyIdx(policy)].get(func() *trie.Trie {
		return trie.BuildFromColumns([][]uint32{r.S, r.O}, policy)
	})
}

// TrieOS returns the (object, subject) trie, building and caching it on
// first use. Safe for concurrent use; concurrent callers of other slots
// never block.
func (r *Relation) TrieOS(policy set.Policy) *trie.Trie {
	return r.os[policyIdx(policy)].get(func() *trie.Trie {
		return trie.BuildFromColumns([][]uint32{r.O, r.S}, policy)
	})
}

// indexMemoryBytes sums the footprint of the relation's built tries.
func (r *Relation) indexMemoryBytes() int {
	total := 0
	for i := 0; i < numPolicies; i++ {
		if t := r.so[i].peek(); t != nil {
			total += t.MemoryBytes()
		}
		if t := r.os[i].peek(); t != nil {
			total += t.MemoryBytes()
		}
	}
	return total
}

// Triple is one dictionary-encoded triple.
type Triple struct {
	S, P, O uint32
}

// Store is an immutable, dictionary-encoded, vertically partitioned RDF
// dataset.
type Store struct {
	dict       *dict.Dictionary
	relations  map[dict.ID]*Relation
	predicates []dict.ID // sorted, for deterministic iteration
	rows       int       // summed over the relations

	// Lazily built full-table tries (see TripleTrie), one latch per
	// (permutation, policy) so distinct permutations build concurrently.
	// Indexed by permIdx: perm[0]*3+perm[1] ∈ [0,9) (6 of the 9 slots are
	// valid permutations; the rest stay empty).
	tripleTries [numPolicies][9]trieSlot
}

// permIdx encodes a column permutation as a slot index.
func permIdx(perm [3]int) int { return perm[0]*3 + perm[1] }

// TripleTrie returns a trie over the full triple table with columns ordered
// by perm (a permutation of {0,1,2} = {S,P,O}), building and caching it on
// first use. Engines use these for patterns with variable predicates; the
// RDF-3X baseline keeps all six permutations, mirroring its clustered
// indexes. Safe for concurrent use; builds of distinct permutations or
// policies proceed concurrently.
func (s *Store) TripleTrie(perm [3]int, policy set.Policy) *trie.Trie {
	return s.tripleTries[policyIdx(policy)][permIdx(perm)].get(func() *trie.Trie {
		cols := make([][]uint32, 3)
		for c := 0; c < 3; c++ {
			cols[c] = make([]uint32, 0, s.rows)
		}
		for t := range s.All() {
			pos := [3]uint32{t.S, t.P, t.O}
			for c := 0; c < 3; c++ {
				cols[c] = append(cols[c], pos[perm[c]])
			}
		}
		return trie.BuildFromColumns(cols, policy)
	})
}

// Builder accumulates triples and produces an immutable Store.
type Builder struct {
	dict *dict.Dictionary
	rels relations
}

// NewBuilder returns an empty builder with a fresh dictionary.
func NewBuilder() *Builder {
	return &Builder{dict: dict.New(), rels: relations{}}
}

// Add encodes one triple and appends it to its predicate's relation. Exact
// duplicates are dropped when Build sorts the relations (RDF graphs are sets
// of triples).
func (b *Builder) Add(t rdf.Triple) {
	b.rels.add(b.dict.EncodeTriple(t))
}

// AddAll appends every triple in ts.
func (b *Builder) AddAll(ts []rdf.Triple) {
	for _, t := range ts {
		b.Add(t)
	}
}

// Build finalizes the store. The builder must not be used afterwards.
func (b *Builder) Build() *Store {
	return assemble(b.dict, b.rels)
}

// FromEncoded builds a store over triples that are already encoded against
// d; the new store shares d rather than copying it. This is the loading
// path of horizontal partitioning (internal/shard) and of the live overlay:
// shard and delta stores hold a slice of one parent dataset and must agree
// with it on term ids, so rows from different stores are directly
// comparable and decode through the one shared dictionary. triples may be
// in any order and hold repeats; the slice is not retained.
func FromEncoded(d *dict.Dictionary, triples []Triple) *Store {
	rels := relations{}
	for _, t := range triples {
		rels.add(t.S, t.P, t.O)
	}
	return assemble(d, rels)
}

// relations collects encoded rows per predicate, unsorted and possibly
// repeated, until assemble finalizes them.
type relations map[dict.ID]*Relation

func (rs relations) add(s, p, o uint32) {
	rel := rs[p]
	if rel == nil {
		rel = &Relation{Predicate: p}
		rs[p] = rel
	}
	rel.S = append(rel.S, s)
	rel.O = append(rel.O, o)
}

// assemble finalizes collected relations into a store: each relation's rows
// are sorted by (S, O), repeats dropped, and the distinct-value statistics
// counted. It runs on every store build — including each Compact() swap and
// every shard of a Partition — so the sort is a radix sort (one reused
// scratch, sequential memory traffic), not a comparison sort or a hash map.
func assemble(d *dict.Dictionary, rels relations) *Store {
	st := &Store{dict: d, relations: rels}
	var scratch radix.Scratch
	for p, rel := range rels {
		rel.sortDedup(&scratch)
		st.predicates = append(st.predicates, p)
		st.rows += rel.Len()
	}
	slices.Sort(st.predicates)
	return st
}

// sortDedup sorts the relation's rows by (S, O), drops repeated rows and
// sets the distinct counts. The sorted subjects go to a fresh column and the
// sorted objects overwrite the permutation as it is read, so the sort holds
// one extra column beyond the radix scratch.
func (r *Relation) sortDedup(scratch *radix.Scratch) {
	perm := make([]uint32, len(r.S))
	for i := range perm {
		perm[i] = uint32(i)
	}
	scratch.SortPermByColumns([][]uint32{r.S, r.O}, perm)
	s, o := make([]uint32, 0, len(perm)), perm[:0]
	for _, row := range perm {
		rs, ro := r.S[row], r.O[row]
		if n := len(s); n > 0 && s[n-1] == rs {
			if o[n-1] == ro {
				continue // a repeated row
			}
		} else {
			r.distinctS++
		}
		s, o = append(s, rs), append(o, ro)
	}
	r.S, r.O = s, o
	r.distinctO = scratch.CountDistinct(o)
}

// FromTriples builds a store from a triple slice in one step.
func FromTriples(ts []rdf.Triple) *Store {
	b := NewBuilder()
	b.AddAll(ts)
	return b.Build()
}

// Dict returns the dataset's shared dictionary.
func (s *Store) Dict() *dict.Dictionary { return s.dict }

// NumTriples returns the number of distinct triples loaded.
func (s *Store) NumTriples() int { return s.rows }

// All yields every triple, relation by relation in predicate order and each
// relation's rows in column order.
func (s *Store) All() iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		for _, p := range s.predicates {
			rel := s.relations[p]
			for i, subj := range rel.S {
				if !yield(Triple{S: subj, P: p, O: rel.O[i]}) {
					return
				}
			}
		}
	}
}

// Predicates returns the encoded predicate ids present, in ascending order.
func (s *Store) Predicates() []dict.ID { return s.predicates }

// Relation returns the vertically partitioned table for the predicate, or
// nil if the predicate does not occur in the data.
func (s *Store) Relation(p dict.ID) *Relation { return s.relations[p] }

// Has reports whether t is in the store, by descending its predicate's
// (subject, object) trie — the same cached index queries read, so a
// membership probe never builds a structure of its own.
func (s *Store) Has(t Triple, policy set.Policy) bool {
	rel := s.relations[t.P]
	if rel == nil {
		return false
	}
	_, ok := rel.TrieSO(policy).Lookup(t.S, t.O)
	return ok
}

// RelationByIRI looks the predicate up by IRI.
func (s *Store) RelationByIRI(iri string) *Relation {
	id, ok := s.dict.LookupIRI(iri)
	if !ok {
		return nil
	}
	return s.relations[id]
}

// Stats describes one predicate table for cardinality estimation.
type Stats struct {
	Rows      int
	DistinctS int
	DistinctO int
}

// Stats returns statistics for predicate p. Unknown predicates report zero
// rows.
func (s *Store) Stats(p dict.ID) Stats {
	rel := s.relations[p]
	if rel == nil {
		return Stats{}
	}
	return Stats{Rows: rel.Len(), DistinctS: rel.distinctS, DistinctO: rel.distinctO}
}

// IndexMemoryBytes estimates the heap footprint of every trie index built
// so far (per-relation SO/OS tries across both layout policies, plus any
// full-table permutation tries). It never triggers index construction, so
// /stats can call it on the serving path; unbuilt indexes report zero.
func (s *Store) IndexMemoryBytes() int {
	total := 0
	for _, rel := range s.relations {
		total += rel.indexMemoryBytes()
	}
	for p := range s.tripleTries {
		for i := range s.tripleTries[p] {
			if t := s.tripleTries[p][i].peek(); t != nil {
				total += t.MemoryBytes()
			}
		}
	}
	return total
}

// String summarizes the store.
func (s *Store) String() string {
	return fmt.Sprintf("Store{triples=%d, predicates=%d, terms=%d}",
		s.rows, len(s.relations), s.dict.Size())
}
