package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/plan"
	"repro/internal/set"
	"repro/internal/trie"
)

// input is one relation participating in a generic join: a trie plus its
// current descent state. The trie's level order must be a subsequence of
// the join's attribute order (the planner guarantees this). Nodes are
// values (flat-trie handles), so the stack is a flat array with no pointer
// chasing. Levels are identified by their index in the join's attribute
// order (at), so the hot loop compares ints, never names.
type input struct {
	levels []plan.Attr
	at     []int32     // at[d] = index in the joiner's attrs of levels[d]; -1 if absent
	stack  []trie.Node // stack[d] = node after descending d levels
	depth  int
}

func newInput(t *trie.Trie, levels []plan.Attr) *input {
	in := &input{levels: levels, stack: make([]trie.Node, len(levels)+1)}
	in.stack[0] = t.Root()
	return in
}

// cloneInputs duplicates the descent state of every input (the underlying
// tries are shared — they are immutable), carrying the attribute indices.
// Parallel workers each own a clone.
func cloneInputs(ins []*input) []*input {
	out := make([]*input, len(ins))
	for i, in := range ins {
		c := &input{levels: in.levels, at: in.at, stack: make([]trie.Node, len(in.stack))}
		c.stack[0] = in.stack[0]
		out[i] = c
	}
	return out
}

// indexLevels resolves every input's level names to indices in attrs, once
// per join; repeated names (?x p ?x) map to the same index. An input that
// already carries indices — a clone — keeps them.
func indexLevels(attrs []plan.Attr, inputs []*input) {
	for _, in := range inputs {
		if in.at != nil {
			continue
		}
		in.at = make([]int32, len(in.levels))
		for d, l := range in.levels {
			in.at[d] = -1
			for i, a := range attrs {
				if a.Name == l.Name {
					in.at[d] = int32(i)
					break
				}
			}
		}
	}
}

// activeAt reports whether the input's next un-descended level is the
// attribute at index idx.
func (in *input) activeAt(idx int32) bool {
	return in.depth < len(in.at) && in.at[in.depth] == idx
}

// currentSet returns the value set at the input's current level.
func (in *input) currentSet() *set.Set {
	return in.stack[in.depth].Set()
}

// descendAll descends every consecutive level of attribute idx with value v
// (repeated names handle self-join patterns like ?x p ?x). It returns the
// number of levels descended and whether all descents succeeded; on failure
// it rolls its own descents back. This is the selection path — each descent
// probes the set by value.
func (in *input) descendAll(idx int32, v uint32) (int, bool) {
	k := 0
	for in.activeAt(idx) {
		child, ok := in.stack[in.depth].ChildByValue(v)
		if !ok {
			in.depth -= k
			return 0, false
		}
		in.depth++
		in.stack[in.depth] = child // zero Node after the leaf level; never read
		k++
	}
	return k, true
}

// descendRanked is the leapfrog descent: the first level descends by the
// value's rank, already known from the seeking iterator's position — no
// Rank probe at all, just the flat trie's CSR offset addition. Consecutive
// levels of the same attribute (self-joins, rare) fall back to value
// probes. On failure it rolls its own descents back.
func (in *input) descendRanked(idx int32, v uint32, rank int) (int, bool) {
	n := in.stack[in.depth]
	var child trie.Node
	if !n.IsLeaf() {
		child = n.Child(rank)
	}
	in.depth++
	in.stack[in.depth] = child
	k := 1
	for in.activeAt(idx) {
		child, ok := in.stack[in.depth].ChildByValue(v)
		if !ok {
			in.depth -= k
			return 0, false
		}
		in.depth++
		in.stack[in.depth] = child
		k++
	}
	return k, true
}

// ascend undoes k levels of descent.
func (in *input) ascend(k int) { in.depth -= k }

// lfIter pairs one active input with its seeking iterator for the current
// attribute. The pair is a value so the per-depth scratch arrays hold the
// whole leapfrog state contiguously.
type lfIter struct {
	it set.Iter
	in *input
}

// joiner runs Algorithm 1. For each attribute in order it intersects the
// current sets of all participating inputs by leapfrog — mutual seeking,
// one value at a time — (or probes the constant for selection attributes),
// binds, descends, and recurses. The last attribute is the exception: when
// every participating input is at its trie's leaf level nothing descends
// after a match, so its sets are intersected whole by the layout-specialised
// kernels of internal/set (§II-A2) and each result value is bound and
// emitted (intersectLast). One leaf there is often loop-invariant — in the
// triangle ?x→?y→?z→?x, ?x's in-neighbours stay put while ?y varies — and
// the joiner keeps that leaf marked in a bitmap so each intersection with
// it is a probe, not a merge (markInvariant): §III-A's choice of layout by
// use.
type joiner struct {
	attrs   []plan.Attr
	inputs  []*input
	binding []uint32

	// Per-depth scratch, reused across the recursion: selection (and
	// last-attribute) actives, leapfrog iterator states, and descend
	// counters. Everything the inner loop touches is preallocated here — no
	// allocations and no closures per recursion step.
	active    [][]*input
	lf        [][]lfIter
	descended [][]int
	emit      func([]uint32) error

	// Last-attribute scratch, allocated on first use and reused: the
	// leaves' set headers (read only when a leaf level holds bitset nodes
	// or more than two inputs take part), the kernels' ping-pong buffers,
	// and the result values. Allocating lazily keeps the joiner small — it
	// often lives in its caller's frame on a generator's fresh goroutine
	// stack — and costs queries that never reach these paths nothing.
	sets []*set.Set
	sc   *set.Scratch
	vals []uint32

	// Invariant-leaf probe. inv is the input whose leaf at the last
	// attribute stays the same node across the enclosing loop (nil when no
	// input's does), decided once by invariantLeaf. marks, taken from
	// marksPool on first use and returned to it cleared by run, holds the
	// members of marked, that leaf's node last seen; markedOK is false when
	// its id range exceeded maxMarkWords and it was not marked.
	inv      *input
	marks    *set.Marks
	marked   trie.Node
	markedOK bool

	// Parallel partitioning: when filterMod is non-zero, values bound at
	// attribute index filterAt are skipped unless v % filterMod ==
	// filterRes. Each worker of a parallel join owns one residue class of
	// the first variable's domain.
	filterAt  int
	filterMod uint32
	filterRes uint32

	// Cancellation: when ctx is non-nil, ctx.Err is polled every
	// cancelStride recursion steps or last-attribute emissions via a
	// countdown (tick: one predictable decrement-and-branch on the hot
	// path; no modulo).
	ctx      context.Context
	cancelIn int
}

// cancelStride is how many recursion steps (or values emitted by the
// last-attribute kernel step) pass between context polls.
const cancelStride = 4096

// maxMarkWords caps the invariant leaf's bitmap at 16 Ki words (128 KB, a
// range of 2^20 ids); a leaf spreading wider is merged instead. A variable
// so that tests can make leaves exceed it.
var maxMarkWords = 1 << 14

// marksPool recycles invariant-leaf bitmaps across joiners. Every Marks in
// it is clear.
var marksPool = sync.Pool{New: func() any { return new(set.Marks) }}

func newJoiner(attrs []plan.Attr, inputs []*input) *joiner {
	indexLevels(attrs, inputs)
	j := &joiner{
		attrs:     attrs,
		inputs:    inputs,
		binding:   make([]uint32, len(attrs)),
		active:    make([][]*input, len(attrs)),
		lf:        make([][]lfIter, len(attrs)),
		descended: make([][]int, len(attrs)),
		cancelIn:  cancelStride,
	}
	for i := range attrs {
		j.active[i] = make([]*input, 0, len(inputs))
		j.lf[i] = make([]lfIter, 0, len(inputs))
		j.descended[i] = make([]int, len(inputs))
	}
	j.inv = invariantLeaf(attrs, inputs)
	return j
}

// invariantLeaf returns the input whose leaf, at the last attribute, stays
// the same node for a whole loop of the attributes before it: one whose
// level above the leaf is bound before the penultimate attribute, or which
// has no level above the leaf (its leaf is its root). Of several, the one
// bound earliest changes least often. It returns nil when there is none.
func invariantLeaf(attrs []plan.Attr, inputs []*input) *input {
	last := int32(len(attrs) - 1)
	if last < 0 || attrs[last].IsSel {
		return nil
	}
	var inv *input
	bound := last - 1 // the parent level must be bound before this index
	for _, in := range inputs {
		n := len(in.at)
		if n == 0 || in.at[n-1] != last {
			continue
		}
		parent := int32(-1)
		if n > 1 {
			parent = in.at[n-2]
		}
		if parent < bound {
			inv, bound = in, parent
		}
	}
	return inv
}

// run enumerates all join results, invoking emit with the binding slice
// (valid only during the call — emit must copy what it keeps). An error
// returned by emit aborts the enumeration and is propagated. However the
// enumeration ends — exhausted, stopped by emit (a LIMIT closing the
// cursor) or cancelled — the invariant-leaf bitmap goes back to its pool
// cleared.
func (j *joiner) run(emit func([]uint32) error) error {
	j.emit = emit
	defer j.release()
	return j.recurse(0)
}

// release clears the invariant-leaf bitmap and returns it to marksPool.
func (j *joiner) release() {
	if j.marks == nil {
		return
	}
	j.marks.Clear()
	marksPool.Put(j.marks)
	j.marks, j.marked, j.markedOK = nil, trie.Node{}, false
}

// tick counts one recursion step (or one value emitted at the last
// attribute) against the cancellation countdown. It is small enough to
// inline; the poll itself is out of line.
func (j *joiner) tick() error {
	j.cancelIn--
	if j.cancelIn > 0 {
		return nil
	}
	return j.poll()
}

// poll restarts the countdown and reports ctx's error, if any. Kept out of
// line so that tick stays within the inlining budget.
//
//go:noinline
func (j *joiner) poll() error {
	j.cancelIn = cancelStride
	if j.ctx == nil {
		return nil
	}
	return j.ctx.Err()
}

func (j *joiner) recurse(idx int) error {
	if err := j.tick(); err != nil {
		return err
	}
	if idx == len(j.attrs) {
		return j.emit(j.binding)
	}
	attr := j.attrs[idx]
	ai := int32(idx)

	if attr.IsSel {
		// Equality selection: probe the constant in every active trie.
		// With the bitset layout this is the constant-time lookup of
		// §III-A; with the uint layout it is a binary search.
		active := j.active[idx][:0]
		for _, in := range j.inputs {
			if in.activeAt(ai) {
				active = append(active, in)
			}
		}
		if len(active) == 0 {
			return fmt.Errorf("exec: attribute %q constrained by no relation (planner bug)", attr.Name)
		}
		counts := j.descended[idx]
		for i, in := range active {
			k, ok := in.descendAll(ai, attr.Value)
			if !ok {
				for r := 0; r < i; r++ {
					active[r].ascend(counts[r])
				}
				return nil
			}
			counts[i] = k
		}
		j.binding[idx] = attr.Value
		err := j.recurse(idx + 1)
		for i, in := range active {
			in.ascend(counts[i])
		}
		return err
	}

	if idx == len(j.attrs)-1 {
		if done, err := j.intersectLast(idx); done {
			return err
		}
	}

	// Leapfrog multiway intersection (Veldhuizen's leapfrog triejoin,
	// the technique the LogicBlox experience paper credits for making the
	// generic join competitive): all active iterators seek to a common
	// value; the iterator holding the largest current value is the frontier
	// and everyone else gallops to it. A single active input degenerates to
	// a plain scan of its set through the same iterator.
	lf := j.lf[idx][:0]
	for _, in := range j.inputs {
		if in.activeAt(ai) {
			lf = append(lf, lfIter{in: in})
		}
	}
	if len(lf) == 0 {
		return fmt.Errorf("exec: attribute %q constrained by no relation (planner bug)", attr.Name)
	}
	for i := range lf {
		lf[i].it.Reset(lf[i].in.currentSet())
		if lf[i].it.Done() {
			return nil // an empty participant: no values can match
		}
	}
	k := len(lf)
	// Order by current value so the leapfrog invariant holds (insertion
	// sort: k is the number of patterns sharing a variable, almost always
	// ≤ 3).
	for i := 1; i < k; i++ {
		for m := i; m > 0 && lf[m].it.Cur() < lf[m-1].it.Cur(); m-- {
			lf[m], lf[m-1] = lf[m-1], lf[m]
		}
	}
	counts := j.descended[idx]
	p := 0
	maxV := lf[k-1].it.Cur()
	for {
		it := &lf[p].it
		if it.Cur() == maxV {
			// Every iterator agrees on maxV: a join value.
			v := maxV
			if j.filterMod == 0 || idx != j.filterAt || v%j.filterMod == j.filterRes {
				ok := true
				failedAt := 0
				for i := range lf {
					kk, o := lf[i].in.descendRanked(ai, v, lf[i].it.Pos())
					if !o {
						ok = false
						failedAt = i
						break
					}
					counts[i] = kk
				}
				if ok {
					j.binding[idx] = v
					err := j.recurse(idx + 1)
					for i := range lf {
						lf[i].in.ascend(counts[i])
					}
					if err != nil {
						return err
					}
				} else {
					for r := 0; r < failedAt; r++ {
						lf[r].in.ascend(counts[r])
					}
				}
			}
			it.Next()
			if it.Done() {
				return nil
			}
			maxV = it.Cur()
		} else {
			if !it.SeekGE(maxV) {
				return nil
			}
			maxV = it.Cur()
		}
		p++
		if p == k {
			p = 0
		}
	}
}

// intersectLast is the kernel step at the last attribute of the join
// order. When every input taking part there sits at its trie's leaf level,
// no descent follows a match, so there is no reason to seek value by value:
// the sets are intersected whole — the paper's layout-specialised kernels
// (§II-A2) rather than LogicBlox-style leapfrog — and each result value is
// filtered to this worker's partition, counted against the cancellation
// countdown, bound and emitted. It reports false, having changed nothing,
// when some participant still has levels below it (a repeated variable such
// as ?x p ?x), when none takes part, or when leafIntersection leaves the
// sets to the leapfrog; the leapfrog handles those.
func (j *joiner) intersectLast(idx int) (bool, error) {
	active := j.active[idx][:0]
	for _, in := range j.inputs {
		if in.activeAt(int32(idx)) {
			if !in.stack[in.depth].IsLeaf() {
				return false, nil
			}
			active = append(active, in)
		}
	}
	if len(active) == 0 {
		return false, nil
	}
	vals, ok := j.leafIntersection(active)
	if !ok {
		return false, nil
	}
	filter := j.filterMod != 0 && idx == j.filterAt
	for _, v := range vals {
		if filter && v%j.filterMod != j.filterRes {
			continue
		}
		if err := j.tick(); err != nil {
			return true, err
		}
		j.binding[idx] = v
		if err := j.emit(j.binding); err != nil {
			return true, err
		}
	}
	return true, nil
}

// leafIntersection returns the members common to the current sets of the
// active inputs, all at leaf level, in ascending order — or false to leave
// them to the leapfrog: where it intersects faster (leapfrogFaster), and
// for a lone bitset leaf, which its iterator decodes as rows are taken
// rather than all up front (a LIMIT may want only a few). The result may
// alias a trie arena or the joiner's scratch; it is valid until the next
// call.
//
// Leaves on uint-only levels are read straight from the value arena
// (trie.Node.UintValues), so the common cases — one leaf, or two as in a
// triangle's closing edge — never touch a set header. A singleton, the
// leaf of a functional property such as memberOf, turns the intersection
// into membership probes of its one value. Anything else goes through the
// headers: two sets through set.IntersectValues, more through the
// scratch's smallest-first fold. Where one of two uint leaves is the
// invariant input's, the other is probed into its marks (markInvariant)
// instead of merged; the singleton, the pairs left to the leapfrog and
// those past the gallop's ratio keep their paths.
func (j *joiner) leafIntersection(active []*input) ([]uint32, bool) {
	if len(active) <= 2 {
		a, aok := active[0].stack[active[0].depth].UintValues()
		if len(active) == 1 {
			if aok {
				return a, true
			}
			s := active[0].currentSet()
			return s.RawSortedValues(), s.Layout() == set.UintArray
		}
		b, bok := active[1].stack[active[1].depth].UintValues()
		if aok && bok {
			var other []uint32 // the leaf probed into the invariant one's marks
			switch j.inv {
			case active[0]:
				other = b
			case active[1]:
				other = a
			}
			if len(b) < len(a) {
				a, b = b, a
			}
			if len(a) == 1 {
				if _, found := slices.BinarySearch(b, a[0]); !found {
					return nil, true
				}
				return a, true
			}
			if leapfrogFaster(false, len(a), len(b)) {
				return nil, false
			}
			if other != nil && len(b) < set.GallopRatio*len(a) && j.markInvariant() {
				j.vals = slices.Grow(j.vals[:0], len(other))[:len(other)]
				return j.vals[:j.marks.Probe(j.vals, other)], true
			}
			j.vals = slices.Grow(j.vals[:0], len(a))[:len(a)]
			return j.vals[:set.IntersectSorted(j.vals, a, b)], true
		}
	}
	if cap(j.sets) < len(active) {
		j.sets = make([]*set.Set, 0, len(j.inputs))
	}
	sets := j.sets[:0]
	small := 0
	for i, in := range active {
		sets = append(sets, in.currentSet())
		if sets[i].Len() < sets[small].Len() {
			small = i
		}
	}
	s1 := sets[small]
	if s1.Len() == 1 {
		v := s1.Min()
		for _, s := range sets {
			if !s.Contains(v) {
				return nil, true
			}
		}
		j.vals = append(j.vals[:0], v)
		return j.vals, true
	}
	for _, s := range sets {
		if s.Layout() == set.UintArray && s != s1 &&
			leapfrogFaster(s1.Layout() == set.Bitset, s1.Len(), s.Len()) {
			return nil, false
		}
	}
	if len(sets) == 2 {
		j.vals = set.IntersectValues(j.vals[:0], sets[0], sets[1])
		return j.vals, true
	}
	if j.sc == nil {
		j.sc = new(set.Scratch)
	}
	res := j.sc.IntersectMany(sets)
	if res.Layout() == set.UintArray {
		return res.RawSortedValues(), true
	}
	j.vals = res.AppendValues(j.vals[:0])
	return j.vals, true
}

// markInvariant makes j.marks hold the invariant input's current leaf, a
// uint leaf, and reports whether it does. Only a leaf node other than the
// one last marked costs anything: the old marks are cleared and the new
// leaf marked, or — when its id range exceeds maxMarkWords — left unmarked,
// and the intersection merges instead until the leaf changes.
func (j *joiner) markInvariant() bool {
	n := j.inv.stack[j.inv.depth]
	if n == j.marked {
		return j.markedOK
	}
	if j.marks == nil {
		j.marks = marksPool.Get().(*set.Marks)
	}
	j.marks.Clear()
	vals, _ := n.UintValues()
	j.marked, j.markedOK = n, j.marks.Mark(vals, maxMarkWords)
	return j.markedOK
}

// Size ratios from which the leapfrog beats the kernels. Below
// set.GallopRatio the uint×uint kernel is a branch-free merge, a chain of
// dependent loads that costs about 4 ns per member of either side; the
// uint×bitset kernel probes every member of the array, about 2 ns each.
// The leapfrog pays a set-up per call and then seeks from the smaller
// side. On a 2-core Xeon, intersecting LUBM q2's and q12's leaves under
// both layout policies, the leapfrog wins once the array is mergeSkew
// times the other side in a merge and probeSkew times it in a probe, while
// the knows triangle's ten-member pairs stay with the merge.
const (
	mergeSkew = 4
	probeSkew = 16
)

// leapfrogFaster reports whether intersecting a uint array of large members
// with a set of small ≤ large members is faster by leapfrog than by the
// kernels; smallIsBitset gives the smaller set's layout.
func leapfrogFaster(smallIsBitset bool, small, large int) bool {
	if smallIsBitset {
		return large >= probeSkew*small
	}
	return large >= mergeSkew*small && large < set.GallopRatio*small
}
