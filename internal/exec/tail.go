package exec

import (
	"slices"

	"repro/internal/set"
	"repro/internal/trie"
)

// The hoisted intersection at the join's last attribute L, and the fused
// tail: the last two attributes, P and L, in one step.
//
// L's inputs split into F, fixed across P's loop because P binds none of
// their levels, and V, entering at P. When every L input ends at its leaf
// and at most one enters at P, each row P can close is a member of V's leaf
// below P's value (the whole of L's domain when there is no V) that every
// F leaf holds. ∩F, the intersection of the F leaves, does not depend on
// P's value, so it is hoisted out of P's loop: computed once per pass, at
// its first match (hoist) — the lone F leaf for the triangle, a kernel
// intersection for LUBM q2 and q9 — and, when it is a uint array probed by
// V's leaves, marked in a pooled bitmap. P's step then runs in three
// phases per block of up to tailBlock matches: the leapfrog collects P's
// values with V's child rank; the block's V leaves are read from the trie
// arena; each is probed into ∩F and its rows emitted in the order the plain
// recursion emits them (flush).
//
// When P's step cannot fuse — P is a selection, there is no P, or P's
// inputs do not fit — L runs its own step (last): one pass with every L
// input in F and V empty, the same hoist, and ∩F emitted whole. Either way
// internal/set picks the kernel that intersects the leaves.

// tailBlock is how many of P's matches the tail collects before probing
// them: enough that reading their leaves runs as one batch of independent
// loads, few enough that the block stays at 8 KB and a LIMIT waits on at
// most that many matches. L's own step decodes a lone bitset leaf in chunks
// of as many members, for the same LIMIT.
const tailBlock = 256

// match is one of P's values in the tail's block: the value, V's child rank
// there, and V's leaf below it, read in the block's second phase.
type match struct {
	v    uint32
	pos  int32
	leaf []uint32
}

// tailHook, when set by a test, is called on each pass of P's loop through
// the tail with |F| and |V|.
var tailHook func(fixed, varying int)

// planTail decides once per join how L's step runs, and splits L's inputs
// into F and V. When every L input binds one level there, its leaf, it sets
// lastLeaf and F to all of them: L's own step. P's step is the fused tail
// when, besides, P and L are variables and every P input binds one level
// there and either ends at it or goes on to L — at most one, V. V's leaves
// must be readable straight from the arena: a leaf level holding bitsets
// (trie.Node.UintLeaves) leaves P to the leapfrog and L to its own step. F
// is L's participant list with V moved out of it: L never runs the
// leapfrog, so the list and its iterators are free to reuse.
func (j *joiner) planTail() {
	l := len(j.attrs) - 1
	if l < 0 || j.attrs[l].IsSel || len(j.lf[l]) == 0 {
		return
	}
	for _, x := range j.lf[l] {
		if d, n := x.in.levelsAt(int32(l)); n != 1 || d != len(x.in.levels)-1 {
			return
		}
	}
	j.lastLeaf, j.fix = true, j.lf[l]
	p := l - 1
	if p < 0 || j.attrs[p].IsSel {
		return
	}
	var vary *input
	for _, x := range j.lf[p] {
		d, n := x.in.levelsAt(int32(p))
		switch last := len(x.in.levels) - 1; {
		case n != 1:
			return
		case d == last:
		case d == last-1 && x.in.at[last] == int32(l) && vary == nil:
			vary = x.in
		default:
			return
		}
	}
	if vary != nil {
		if !vary.stack[0].UintLeaves() {
			return
		}
		k := len(j.fix) - 1
		i := slices.IndexFunc(j.fix, func(x lfIter) bool { return x.in == vary })
		j.fix[i], j.fix[k] = j.fix[k], j.fix[i]
		j.fix = j.fix[:k]
	}
	j.tailAt, j.vary = p, vary
}

// enterTail starts a pass of P's loop.
func (j *joiner) enterTail() {
	if tailHook != nil {
		varying := 0
		if j.vary != nil {
			varying = 1
		}
		tailHook(len(j.fix), varying)
	}
	if j.block == nil {
		j.block = make([]match, 0, tailBlock)
	}
}

// hoist computes ∩F — for a pass of P's loop at the pass's first match (a
// pass without one, common where P's inputs are selective, costs nothing),
// or for L's own step — and reports whether it has members. With one F
// input ∩F is its leaf, read straight from the arena when the leaf level
// holds uint arrays only, and taken again only when the leaf is another
// node than last time (a one-level input's leaf is its root, one node for
// the whole join); with several it is their kernel intersection. A uint ∩F
// that V's leaves probe is marked, when its range fits maxMarkWords. A
// bitset one is kept when V's leaves probe it or it is the lone leaf L's
// own step decodes in chunks; else it is emitted whole — at every match of
// a tail without V, or once, as the kernels' full result — and decoded
// once.
func (j *joiner) hoist() bool {
	var s *set.Set
	var vals []uint32
	switch len(j.fix) {
	case 0:
		return true
	case 1:
		n := j.fix[0].in.node()
		if n == j.fixLeaf {
			return len(j.hv) > 0 || j.hbits != nil
		}
		j.unmark()
		j.fixLeaf = n
		var ok bool
		if vals, ok = n.UintValues(); !ok {
			s = n.Set()
		}
	default:
		// Unmark first: the marks may record values in the scratch that
		// the intersection is about to overwrite.
		j.unmark()
		if cap(j.sets) < len(j.fix) {
			j.sets = make([]*set.Set, 0, len(j.inputs))
		}
		sets := j.sets[:0]
		for _, x := range j.fix {
			sets = append(sets, x.in.currentSet())
		}
		if j.sc == nil {
			j.sc = new(set.Scratch)
		}
		s = j.sc.IntersectMany(sets)
	}
	j.hv, j.hbits = vals, nil
	switch {
	case s == nil:
	case s.Layout() != set.Bitset:
		j.hv = s.RawSortedValues()
	case j.vary != nil || j.tailAt < 0 && len(j.fix) == 1:
		j.hbits = s
		return true
	default:
		j.fvals = s.AppendValues(j.fvals[:0])
		j.hv = j.fvals
	}
	if len(j.hv) == 0 {
		return false
	}
	if j.vary != nil {
		if j.marks == nil {
			j.marks = marksPool.Get().(*set.Marks)
		}
		j.markedOK = j.marks.Mark(j.hv, maxMarkWords)
	}
	return true
}

// last is L's own step, taken when P's step is not the fused tail: one
// pass with V empty, emitting the members of ∩F at or above the symmetry
// bound. A lone bitset leaf is decoded from the bound word by word into
// chunks of tailBlock members, each emitted whole, so a LIMIT that wants a
// few rows of a large leaf decodes one chunk, not the leaf.
func (j *joiner) last(l int) error {
	if !j.hoist() {
		return nil
	}
	lo := j.lowerBound(l)
	if j.hbits == nil {
		return j.emitRows(l, trimBelow(j.hv, lo))
	}
	if cap(j.fvals) < tailBlock {
		j.fvals = make([]uint32, tailBlock)
	}
	return j.hbits.DecodeChunks(j.fvals[:tailBlock], lo, func(vals []uint32) error { return j.emitRows(l, vals) })
}

// flush runs the block's last two phases: it reads the V leaf below each
// match, then binds each match's value at P and emits the rows its leaf
// closes — ∩F itself when there is no V — at or above the symmetry bound,
// counting each match and each row against the cancellation countdown.
// Reading a leaf also loads its first member, so that the block's cache
// misses on the leaves are taken in one loop of independent loads rather
// than one per probe; j.touch keeps those loads. The block is empty
// afterwards, even when emit or the countdown stops it part way.
func (j *joiner) flush(p int) error {
	blk := j.block
	j.block = blk[:0]
	if j.vary != nil {
		node := j.vary.node()
		var touch uint32
		for i := range blk {
			leaf, _ := node.Child(int(blk[i].pos)).UintValues()
			blk[i].leaf = leaf
			if len(leaf) > 0 {
				touch += leaf[0]
			}
		}
		j.touch = touch
	}
	l := p + 1
	bounded := j.sym != nil && j.sym.bounded[l]
	for i := range blk {
		if err := j.tick(); err != nil {
			return err
		}
		j.binding[p] = blk[i].v
		vals := j.hv
		if j.vary != nil {
			vals = j.probe(blk[i].leaf)
		}
		// The symmetry bound trims the rows, never ∩F itself: ∩F outlives
		// the pass, and the bound may change with P's value.
		if bounded {
			vals = trimBelow(vals, j.binding[j.sym.a])
		}
		if err := j.emitRows(l, vals); err != nil {
			return err
		}
	}
	return nil
}

// emitRows binds each of the ascending vals at L and emits the row,
// counting it against the cancellation countdown — skipping, when L is the
// attribute the workers partition on, a value outside this worker's
// residue class.
func (j *joiner) emitRows(l int, vals []uint32) error {
	filter := j.filterMod != 0 && l == j.filterAt
	for _, v := range vals {
		if filter && v%j.filterMod != j.filterRes {
			continue
		}
		if err := j.tick(); err != nil {
			return err
		}
		j.binding[l] = v
		if err := j.emit(j.binding); err != nil {
			return err
		}
	}
	return nil
}

// probe returns the members of the V leaf that ∩F holds, ascending: the
// leaf itself when there is no F, else the leaf probed into the bitset or
// the bitmap — or, when ∩F was too wide to mark, intersected with it by
// the uint kernel. internal/set chooses between testing every member of
// the leaf and galloping it, by their sizes.
func (j *joiner) probe(leaf []uint32) []uint32 {
	if len(j.fix) == 0 {
		return leaf
	}
	j.vals = slices.Grow(j.vals[:0], len(leaf))[:len(leaf)]
	var n int
	switch {
	case j.hbits != nil:
		n = j.hbits.Probe(j.vals, leaf)
	case j.markedOK:
		n = j.marks.Probe(j.vals, leaf)
	default:
		n = set.IntersectSorted(j.vals, j.hv, leaf)
	}
	return j.vals[:n]
}

// unmark clears the bitmap if it holds ∩F.
func (j *joiner) unmark() {
	if j.markedOK {
		j.marks.Clear()
		j.markedOK = false
	}
}

// release clears the tail's bitmap and returns it to marksPool.
func (j *joiner) release() {
	if j.marks == nil {
		return
	}
	j.unmark()
	marksPool.Put(j.marks)
	j.marks, j.fixLeaf = nil, trie.Node{}
}
