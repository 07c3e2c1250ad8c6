// Package trie implements the multi-level trie that EmptyHeaded uses to
// store every relation, input and output (§II-A of the paper). Each level of
// a trie corresponds to one attribute of the relation; the values at each
// level are stored as internal/set sets whose layout is chosen by the set
// layout optimizer.
//
// A trie over attributes [a1, ..., ak] is equivalent to a clustered index on
// (a1, ..., ak): descending the trie by one level narrows the relation by an
// equality on the next attribute.
//
// # Physical layout
//
// The trie is flat: no per-node heap objects, no child pointers. Each level
// owns four contiguous arenas —
//
//	start  CSR offsets: node n's members occupy global ranks
//	       start[n]..start[n+1] at this level
//	sets   one set header per node, viewing the arenas below
//	vals   the concatenated sorted members of every uint-layout node
//	words/ranks  the concatenated bit words and rank directories of every
//	       bitset-layout node
//
// Node identity is (level, index); the child reached from node n by its
// rank-i member is node start[n]+i at the next level, because members are
// laid out in node order and every member spawns exactly one child. Descent
// is therefore one offset addition — no pointer chase — and a set iterator's
// position doubles as the child index (internal/exec exploits this in the
// leapfrog join). Construction radix-sorts a row permutation once
// (internal/radix; no comparator closures) and then emits each level with
// two sequential passes, so building is cache-friendly and allocates O(arity)
// arenas instead of O(nodes) individual sets.
package trie

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/radix"
	"repro/internal/set"
	"repro/internal/stats"
)

// buildScratch holds BuildFromColumns's transient buffers: the radix-sort
// scratch, the row permutation, and the two alternating node-bounds arrays.
// None of them survive the build, so they are pooled — a compaction rebuilds
// every relation's tries back to back, and at LUBM scale each build would
// otherwise re-allocate megabytes of scratch that the previous one just
// dropped. The retained arenas (start/vals/words/ranks) are sized exactly
// per trie and are not poolable.
type buildScratch struct {
	radix  radix.Scratch
	perm   []uint32
	bounds [2][]int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// permBuf returns the permutation buffer resized to n (contents undefined).
func (s *buildScratch) permBuf(n int) []uint32 {
	if cap(s.perm) < n {
		s.perm = make([]uint32, n)
	}
	return s.perm[:n]
}

// boundsBuf returns bounds buffer which resized to n (contents undefined —
// every caller fully overwrites it).
func (s *buildScratch) boundsBuf(which, n int) []int32 {
	if cap(s.bounds[which]) < n {
		s.bounds[which] = make([]int32, n)
	}
	return s.bounds[which][:n]
}

// level is one attribute's arena group. See the package comment for the
// layout contract.
type level struct {
	start []int32   // CSR: len = nodes+1; start[n+1]-start[n] = node n's cardinality
	sets  []set.Set // len = nodes; headers viewing vals or words/ranks
	vals  []uint32  // arena backing every uint-layout set at this level
	words []uint64  // arena backing every bitset-layout set's words
	ranks []int32   // arena backing every bitset-layout set's rank directory
}

// Trie is an immutable trie over a fixed number of attributes. A Trie value
// is either a full trie (rootLevel 0, one node at level 0) or a zero-copy
// view of a subtree (see Sub) — views share the levels of their parent.
type Trie struct {
	arity     int
	tuples    int // -1 for views (unknown without counting)
	levels    []level
	lstats    []stats.Level // per-level histograms; may be nil on old segments
	rootLevel int32
	rootNode  int32
}

// Node is a handle to one trie node: (trie, level, index). It is a value —
// copying it is free and descent state can live in flat stacks
// (internal/exec keeps []Node per input).
type Node struct {
	t     *Trie
	level int32
	node  int32
}

// Set returns the values present at this node's level. The returned set is
// a view into the trie's arenas; it must not be mutated.
func (n Node) Set() *set.Set { return &n.t.levels[n.level].sets[n.node] }

// UintValues returns the node's members, sorted, straight from its level's
// value arena as vals[start[n]:start[n+1]] — valid when no node at the
// level uses the bitset layout, since the arena then holds every node's
// members in node order and the CSR offsets index it directly. The set
// header is never read. It reports false when the level holds a bitset
// node; use Set then. The slice must not be mutated.
func (n Node) UintValues() ([]uint32, bool) {
	lv := &n.t.levels[n.level]
	if len(lv.words) != 0 {
		return nil, false
	}
	lo, hi := lv.start[n.node], lv.start[n.node+1]
	return lv.vals[lo:hi:hi], true
}

// UintLeaves reports whether UintValues succeeds on every leaf of n's trie:
// no node at its last level uses the bitset layout.
func (n Node) UintLeaves() bool { return len(n.t.levels[len(n.t.levels)-1].words) == 0 }

// IsLeaf reports whether this node is at the last level of its trie.
func (n Node) IsLeaf() bool { return int(n.level) == len(n.t.levels)-1 }

// Child returns the child node for the i-th value (0-based rank) of the
// node's set. It panics if the node is a leaf.
func (n Node) Child(i int) Node {
	if n.IsLeaf() {
		panic("trie: Child on leaf node")
	}
	return Node{t: n.t, level: n.level + 1, node: n.t.levels[n.level].start[n.node] + int32(i)}
}

// ChildByValue returns the child reached by descending with value v, or
// (Node{}, false) if v is not present at this level. On a leaf it returns
// (Node{}, true) when v is a member — membership confirmed, no child to
// descend to.
func (n Node) ChildByValue(v uint32) (Node, bool) {
	r, ok := n.Set().Rank(v)
	if !ok {
		return Node{}, false
	}
	if n.IsLeaf() {
		return Node{}, true
	}
	return Node{t: n.t, level: n.level + 1, node: n.t.levels[n.level].start[n.node] + int32(r)}, true
}

// Arity returns the number of attributes (levels).
func (t *Trie) Arity() int { return t.arity }

// Len returns the number of distinct tuples stored, or -1 for subtree views.
func (t *Trie) Len() int { return t.tuples }

// Root returns the root node. For an empty trie the root carries an empty
// set.
func (t *Trie) Root() Node { return Node{t: t, level: t.rootLevel, node: t.rootNode} }

// String describes the trie briefly.
func (t *Trie) String() string {
	return fmt.Sprintf("Trie{arity=%d, tuples=%d}", t.arity, t.tuples)
}

// Sub returns a read-only view of the subtree rooted at n, exposed as a
// Trie of the given arity. Views share the parent's level arenas — this is
// how equality selections produce node results without copying (descending
// a covering index by the selected constant yields the result relation
// directly). The tuple count of a view is unknown; Len reports -1.
func Sub(n Node, arity int) *Trie {
	if n.t == nil {
		panic("trie: Sub of zero Node")
	}
	if arity != len(n.t.levels)-int(n.level) {
		panic(fmt.Sprintf("trie: Sub arity %d does not match remaining levels %d",
			arity, len(n.t.levels)-int(n.level)))
	}
	return &Trie{arity: arity, tuples: -1, levels: n.t.levels, lstats: n.t.lstats,
		rootLevel: n.level, rootNode: n.node}
}

// BuildFromColumns builds a trie whose level c holds column cols[c]. All
// columns must have equal length (one entry per tuple). Duplicate tuples
// collapse. The input slices are not retained or mutated.
func BuildFromColumns(cols [][]uint32, policy set.Policy) *Trie {
	arity := len(cols)
	if arity == 0 {
		panic("trie: BuildFromColumns with zero columns")
	}
	n := len(cols[0])
	for _, c := range cols[1:] {
		if len(c) != n {
			panic("trie: ragged columns")
		}
	}
	t := &Trie{arity: arity, levels: make([]level, arity), lstats: make([]stats.Level, arity)}
	if n == 0 {
		// Canonical empty trie: one root node holding the empty set,
		// nothing below.
		t.levels[0] = level{start: []int32{0, 0}, sets: make([]set.Set, 1)}
		for l := 1; l < arity; l++ {
			t.levels[l] = level{start: []int32{0}}
		}
		return t
	}

	sc := buildPool.Get().(*buildScratch)
	defer buildPool.Put(sc)
	perm := sc.permBuf(n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	sc.radix.SortPermByColumns(cols, perm)

	// bounds[g]..bounds[g+1] is the sorted-row range of the current level's
	// g-th node. The root level sees every row. The two bounds buffers
	// alternate per level (level l reads one while writing the other).
	bounds := sc.boundsBuf(0, 2)
	bounds[0], bounds[1] = 0, int32(n)
	for l := 0; l < arity; l++ {
		col := cols[l]
		nodes := len(bounds) - 1
		lv := &t.levels[l]
		lv.start = make([]int32, nodes+1)
		lv.sets = make([]set.Set, nodes)
		leaf := l == arity-1

		// Pass A: count each node's distinct values (rows are sorted, so
		// distinct = transitions) and pre-size the arenas exactly. The
		// layout decision needs only (card, min, max), all known here, so
		// no per-node layout flags are stored — pass B re-derives it. The
		// same (card, min, max) triple feeds the level histogram, so the
		// statistics the chooser layer needs cost no extra pass.
		ls := &t.lstats[l]
		uintTotal, wordTotal := 0, 0
		for g := 0; g < nodes; g++ {
			lo, hi := bounds[g], bounds[g+1]
			card := 1
			prev := col[perm[lo]]
			for r := lo + 1; r < hi; r++ {
				if v := col[perm[r]]; v != prev {
					card++
					prev = v
				}
			}
			lv.start[g+1] = lv.start[g] + int32(card)
			minV, maxV := col[perm[lo]], col[perm[hi-1]]
			want := set.WantBitset(card, minV, maxV, policy)
			ls.Observe(uint64(card), uint64(maxV)-uint64(minV)+1, want,
				want != set.PaperRuleWantBitset(card, minV, maxV))
			if want {
				wordTotal += set.BitsetWords(minV, maxV)
			} else {
				uintTotal += card
			}
		}
		total := int(lv.start[nodes]) // nodes at the next level
		lv.vals = make([]uint32, 0, uintTotal)
		if wordTotal > 0 {
			lv.words = make([]uint64, wordTotal)
			lv.ranks = make([]int32, wordTotal)
		}
		var newBounds []int32
		if !leaf {
			newBounds = sc.boundsBuf((l+1)&1, total+1)
		}

		// Pass B: emit each node's set into the arenas and record where
		// every member's row group starts — those become the next level's
		// node bounds.
		wordOff := 0
		for g := 0; g < nodes; g++ {
			lo, hi := bounds[g], bounds[g+1]
			card := int(lv.start[g+1] - lv.start[g])
			minV, maxV := col[perm[lo]], col[perm[hi-1]]
			k := lv.start[g] // global rank cursor == next-level node index
			if set.WantBitset(card, minV, maxV, policy) {
				nw := set.BitsetWords(minV, maxV)
				words := lv.words[wordOff : wordOff+nw : wordOff+nw]
				rks := lv.ranks[wordOff : wordOff+nw : wordOff+nw]
				wordOff += nw
				base := minV &^ 63
				prev := minV + 1 // sentinel ≠ first value (see below)
				for r := lo; r < hi; r++ {
					if v := col[perm[r]]; v != prev {
						off := v - base
						words[off/64] |= 1 << (off % 64)
						if !leaf {
							newBounds[k] = r
						}
						k++
						prev = v
					}
				}
				set.InitBitset(&lv.sets[g], words, rks, base, card)
			} else {
				valsStart := len(lv.vals)
				// minV+1 can only collide with a later value by wrapping to
				// 0 when minV is MaxUint32 — but then minV is also the max,
				// so every row matches the first transition anyway.
				prev := minV + 1
				for r := lo; r < hi; r++ {
					if v := col[perm[r]]; v != prev {
						lv.vals = append(lv.vals, v)
						if !leaf {
							newBounds[k] = r
						}
						k++
						prev = v
					}
				}
				end := len(lv.vals)
				set.InitSortedView(&lv.sets[g], lv.vals[valsStart:end:end])
			}
		}
		if leaf {
			t.tuples = total
		} else {
			newBounds[total] = int32(n)
			bounds = newBounds
		}
	}
	if policy == set.PolicyAdaptive {
		var bs, us, fl uint64
		for l := range t.lstats {
			bs += t.lstats[l].BitsetNodes
			us += t.lstats[l].UintNodes
			fl += t.lstats[l].Flips
		}
		stats.Default.RecordLayout(bs, us, fl)
	}
	return t
}

// BuildFromRows builds a trie from row-major tuples, each of length arity.
func BuildFromRows(rows [][]uint32, arity int, policy set.Policy) *Trie {
	cols := make([][]uint32, arity)
	for c := range cols {
		cols[c] = make([]uint32, len(rows))
	}
	for r, row := range rows {
		if len(row) != arity {
			panic(fmt.Sprintf("trie: row %d has %d values, want %d", r, len(row), arity))
		}
		for c := range row {
			cols[c][r] = row[c]
		}
	}
	return BuildFromColumns(cols, policy)
}

// Each enumerates every tuple in lexicographic order. The tuple slice is
// reused between calls; callers must copy it to retain it. Enumeration stops
// early if fn returns false.
func (t *Trie) Each(fn func(tuple []uint32) bool) {
	buf := make([]uint32, t.arity)
	t.each(t.Root(), 0, buf, fn)
}

func (t *Trie) each(n Node, d int, buf []uint32, fn func([]uint32) bool) bool {
	lv := &t.levels[n.level]
	leaf := int(n.level) == len(t.levels)-1
	var childBase int32
	if !leaf {
		childBase = lv.start[n.node]
	}
	var it set.Iter
	for it.Reset(&lv.sets[n.node]); !it.Done(); it.Next() {
		buf[d] = it.Cur()
		if leaf {
			if !fn(buf) {
				return false
			}
		} else {
			child := Node{t: t, level: n.level + 1, node: childBase + int32(it.Pos())}
			if !t.each(child, d+1, buf, fn) {
				return false
			}
		}
	}
	return true
}

// Rows materializes every tuple as a fresh [][]uint32, mainly for tests.
func (t *Trie) Rows() [][]uint32 {
	out := make([][]uint32, 0, max(t.tuples, 0))
	t.Each(func(tuple []uint32) bool {
		out = append(out, append([]uint32(nil), tuple...))
		return true
	})
	return out
}

// Lookup descends the trie with the given prefix of values and returns the
// node reached (whose set holds the possible next-attribute values), or
// (Node{}, false) if the prefix is absent. A full-arity prefix returns
// (Node{}, true) when the tuple exists.
func (t *Trie) Lookup(prefix ...uint32) (Node, bool) {
	if len(prefix) > t.arity {
		panic("trie: Lookup prefix longer than arity")
	}
	n := t.Root()
	for _, v := range prefix {
		child, ok := n.ChildByValue(v)
		if !ok {
			return Node{}, false
		}
		n = child
	}
	if len(prefix) == t.arity {
		return Node{}, true
	}
	return n, true
}

// setHeaderBytes is the in-arena footprint of one set.Set header.
const setHeaderBytes = int(unsafe.Sizeof(set.Set{}))

// MemoryBytes estimates the heap footprint of the trie's arenas: values,
// bit words, rank directories, CSR offsets, and set headers. Subtree views
// report the footprint of the whole underlying trie (arenas are shared, so
// a per-subtree number would double count).
func (t *Trie) MemoryBytes() int {
	total := 0
	for i := range t.levels {
		lv := &t.levels[i]
		total += 4*len(lv.vals) + 8*len(lv.words) + 4*len(lv.ranks) +
			4*len(lv.start) + setHeaderBytes*len(lv.sets)
	}
	return total
}
