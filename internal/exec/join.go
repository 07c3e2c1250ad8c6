package exec

import (
	"context"
	"fmt"
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
// per join, into one slab shared by the inputs; repeated names (?x p ?x) map
// to the same index. An input that already carries indices — a clone —
// keeps them.
func indexLevels(attrs []plan.Attr, inputs []*input) {
	n := 0
	for _, in := range inputs {
		if in.at == nil {
			n += len(in.levels)
		}
	}
	if n == 0 {
		return
	}
	slab := make([]int32, n)
	for _, in := range inputs {
		if in.at != nil {
			continue
		}
		k := len(in.levels)
		in.at, slab = slab[:k:k], slab[k:]
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

// levelsAt locates the input's levels bound at attribute idx: the depth d of
// the first and their number n — more than one for a repeated variable
// (?x p ?x) — or n = 0 when the input takes no part there. The join binds
// attributes in order, so the walk ends at the first level whose attribute
// is absent or does not follow the previous level's: the join never reaches
// it.
func (in *input) levelsAt(idx int32) (d, n int) {
	prev := int32(-1)
	for d < len(in.at) {
		a := in.at[d]
		if a <= prev || a > idx {
			return 0, 0
		}
		n = 1
		for d+n < len(in.at) && in.at[d+n] == a {
			n++
		}
		if a == idx {
			return d, n
		}
		prev, d = a, d+n
	}
	return 0, 0
}

// node returns the input's current node.
func (in *input) node() trie.Node { return in.stack[in.depth] }

// currentSet returns the value set at the input's current level.
func (in *input) currentSet() *set.Set { return in.node().Set() }

// descendAll descends n levels with value v, each by probing the set — the
// selection path, and the repeated levels of a self-join pattern. It
// reports whether every descent succeeded; on failure it rolls its own
// descents back.
func (in *input) descendAll(v uint32, n int) bool {
	for k := 0; k < n; k++ {
		child, ok := in.node().ChildByValue(v)
		if !ok {
			in.depth -= k
			return false
		}
		in.depth++
		in.stack[in.depth] = child // zero Node after the leaf level; never read
	}
	return true
}

// descendRanked is the leapfrog descent of n levels with value v: the first
// level descends by the value's rank, already known from the seeking
// iterator's position — no Rank probe at all, just the flat trie's CSR
// offset addition. Repeated levels (self-joins, rare) fall back to value
// probes. On failure it rolls its own descents back.
func (in *input) descendRanked(v uint32, rank, n int) bool {
	node := in.node()
	var child trie.Node
	if !node.IsLeaf() {
		child = node.Child(rank)
	}
	in.depth++
	in.stack[in.depth] = child
	if n > 1 && !in.descendAll(v, n-1) {
		in.depth--
		return false
	}
	return true
}

// ascend undoes k levels of descent.
func (in *input) ascend(k int) { in.depth -= k }

// lfIter is one input taking part at an attribute: its seeking iterator
// there and the number of its levels the attribute binds. The triple is a
// value so the per-depth lists hold the whole leapfrog state contiguously.
type lfIter struct {
	it set.Iter
	in *input
	n  int
}

// joiner runs Algorithm 1. For each attribute in order it intersects the
// current sets of the inputs taking part there by leapfrog — mutual seeking,
// one value at a time — (or probes the constant for selection attributes),
// binds, descends, and recurses. Which inputs take part at each attribute,
// and how many of their levels it binds, is resolved once per join
// (newJoiner), not rediscovered at each step.
//
// The last attribute, L, is the exception when every input taking part
// there is at its trie's leaf level: nothing descends after a match, so its
// leaves are intersected whole by the layout-specialised kernels of
// internal/set (§II-A2), which pick the kernel from the layouts and sizes,
// and each member of the intersection is bound and emitted. Most of L's
// inputs are usually fixed across the loop of the penultimate attribute P —
// in the triangle ?x→?y→?z→?x, ?x's in-neighbours stay put while ?y varies
// — and at most one, V, enters at P. Then P's step is the fused tail
// (tail.go): the intersection ∩F of the fixed leaves F is hoisted out of
// P's loop, computed once per pass and kept marked in a bitmap, and P's
// matches are collected in blocks whose varying leaves are each probed into
// it: loop-invariant code motion, and §III-A's choice of layout by use.
// When P's step cannot fuse, L's own step is the same hoist with every L
// input in F and V empty, emitted whole (last).
type joiner struct {
	attrs   []plan.Attr
	inputs  []*input
	binding []uint32
	emit    func([]uint32) error

	// lf[i] lists the inputs taking part at attribute i with their
	// iterators: per-depth scratch, resolved once and reused across the
	// recursion, so the inner loop makes no allocation and no closure.
	// lastLeaf is set when every input taking part at the last attribute
	// binds its leaf level there.
	lf       [][]lfIter
	lastLeaf bool

	// Last-attribute scratch, allocated on first use and reused: the set
	// headers of a ∩F of several leaves and the kernels' ping-pong buffers
	// that intersect them, and the probed rows. Allocating lazily keeps the
	// joiner small — it often lives in its caller's frame on a generator's
	// fresh goroutine stack — and costs queries that never reach these
	// paths nothing.
	sets []*set.Set
	sc   *set.Scratch
	vals []uint32

	// The hoisted intersection (tail.go). tailAt is the attribute P whose
	// step runs as the fused tail, -1 when none does. fix (F) and vary (V,
	// nil when none) split L's inputs — F is all of them when L runs its
	// own step — and block collects P's matches. ∩F is hv — marked in marks
	// when markedOK — or the bitset hbits. fixLeaf is F's leaf node ∩F was
	// taken from when F is one input, fvals a bitset ∩F's decoded members or
	// the chunk L's own step decodes a lone bitset leaf into.
	// marks comes from marksPool and goes back cleared. touch sinks the
	// loads with which flush pulls a block's leaves in.
	tailAt   int
	fix      []lfIter
	vary     *input
	block    []match
	fixLeaf  trie.Node
	hv       []uint32
	hbits    *set.Set
	fvals    []uint32
	marks    *set.Marks
	markedOK bool
	touch    uint32

	// Parallel partitioning: when filterMod is non-zero, values bound at
	// attribute index filterAt are skipped unless v % filterMod ==
	// filterRes. Each worker of a parallel join owns one residue class of
	// the first variable's domain.
	filterAt  int
	filterMod uint32
	filterRes uint32

	// Symmetry breaking (sym.go): when sym is non-nil, the join enumerates
	// only bindings within its bound, and emit is emitOrbit, which passes
	// each least binding and its distinct images to out, building the
	// images in imgs.
	sym  *symmetry
	out  func([]uint32) error
	imgs []uint32

	// Cancellation: when ctx is non-nil, ctx.Err is polled every
	// cancelStride recursion steps or last-attribute rows via a
	// countdown (tick: one predictable decrement-and-branch on the hot
	// path; no modulo).
	ctx      context.Context
	cancelIn int
}

// cancelStride is how many recursion steps (or rows emitted at the last
// attribute) pass between context polls.
const cancelStride = 4096

// maxMarkWords caps the hoisted intersection's bitmap at 16 Ki words (128
// KB, a range of 2^20 ids); one spreading wider is merged instead. A
// variable so that tests can make leaves exceed it.
var maxMarkWords = 1 << 14

// marksPool recycles the tail's bitmaps across joiners. Every Marks in it
// is clear.
var marksPool = sync.Pool{New: func() any { return new(set.Marks) }}

// newJoiner resolves, once for the join, which inputs take part at each
// attribute and whether P's step runs as the fused tail. Its few
// allocations are slabs shared by all attributes and inputs.
func newJoiner(attrs []plan.Attr, inputs []*input) *joiner {
	indexLevels(attrs, inputs)
	levels := 0
	for _, in := range inputs {
		levels += len(in.levels)
	}
	slab := make([]lfIter, 0, levels) // an input takes part at most once per level
	j := &joiner{
		attrs:    attrs,
		inputs:   inputs,
		binding:  make([]uint32, len(attrs)),
		lf:       make([][]lfIter, len(attrs)),
		tailAt:   -1,
		cancelIn: cancelStride,
	}
	for i := range attrs {
		start := len(slab)
		for _, in := range inputs {
			if _, n := in.levelsAt(int32(i)); n > 0 {
				slab = append(slab, lfIter{in: in, n: n})
			}
		}
		j.lf[i] = slab[start:len(slab):len(slab)]
	}
	j.planTail()
	return j
}

// run enumerates all join results, invoking emit with the binding slice
// (valid only during the call — emit must copy what it keeps). An error
// returned by emit aborts the enumeration and is propagated. However the
// enumeration ends — exhausted, stopped by emit (a LIMIT closing the
// cursor) or cancelled — the tail's bitmap goes back to its pool cleared.
func (j *joiner) run(emit func([]uint32) error) error {
	j.emit = emit
	if j.sym != nil {
		j.out, j.emit = emit, j.emitOrbit
		j.imgs = make([]uint32, len(j.sym.perms)*len(j.attrs))
	}
	defer j.release()
	return j.recurse(0)
}

// tick counts one recursion step (or one row emitted at the last
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
	lf := j.lf[idx]
	if len(lf) == 0 {
		return fmt.Errorf("exec: attribute %q constrained by no relation (planner bug)", attr.Name)
	}

	if attr.IsSel {
		// Equality selection: probe the constant in every participating
		// trie. With the bitset layout this is the constant-time lookup of
		// §III-A; with the uint layout it is a binary search.
		for i := range lf {
			if !lf[i].in.descendAll(attr.Value, lf[i].n) {
				for r := 0; r < i; r++ {
					lf[r].in.ascend(lf[r].n)
				}
				return nil
			}
		}
		j.binding[idx] = attr.Value
		err := j.recurse(idx + 1)
		for i := range lf {
			lf[i].in.ascend(lf[i].n)
		}
		return err
	}

	if idx == len(j.attrs)-1 && j.lastLeaf {
		return j.last(idx)
	}
	tail := idx == j.tailAt
	hoisted := false // in the tail, whether this pass has hoisted ∩F yet
	if tail {
		j.enterTail()
	}

	// Leapfrog multiway intersection (Veldhuizen's leapfrog triejoin,
	// the technique the LogicBlox experience paper credits for making the
	// generic join competitive): all iterators seek to a common value; the
	// iterator holding the largest current value is the frontier and
	// everyone else gallops to it. A single input degenerates to a plain
	// scan of its set through the same iterator. Under a symmetry bound
	// every iterator starts at the bound.
	lo := j.lowerBound(idx)
	for i := range lf {
		lf[i].it.Reset(lf[i].in.currentSet())
		if lf[i].it.Done() || lo > 0 && !lf[i].it.SeekGE(lo) {
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
	vi := -1 // in the tail, V's iterator: its rank at a match addresses V's leaf
	if tail {
		for i := range lf {
			if lf[i].in == j.vary {
				vi = i
			}
		}
	}
	p := 0
	maxV := lf[k-1].it.Cur()
	for {
		it := &lf[p].it
		if it.Cur() == maxV {
			// Every iterator agrees on maxV: a join value.
			v := maxV
			if j.filterMod == 0 || idx != j.filterAt || v%j.filterMod == j.filterRes {
				if tail {
					if !hoisted {
						hoisted = true
						if !j.hoist() {
							return nil // ∩F is empty: no value here closes a row
						}
					}
					m := match{v: v}
					if vi >= 0 {
						m.pos = int32(lf[vi].it.Pos())
					}
					j.block = append(j.block, m)
					if len(j.block) == tailBlock {
						if err := j.flush(idx); err != nil {
							return err
						}
					}
				} else {
					ok := true
					failedAt := 0
					for i := range lf {
						if !lf[i].in.descendRanked(v, lf[i].it.Pos(), lf[i].n) {
							ok = false
							failedAt = i
							break
						}
					}
					if ok {
						j.binding[idx] = v
						err := j.recurse(idx + 1)
						for i := range lf {
							lf[i].in.ascend(lf[i].n)
						}
						if err != nil {
							return err
						}
					} else {
						for r := 0; r < failedAt; r++ {
							lf[r].in.ascend(lf[r].n)
						}
					}
				}
			}
			it.Next()
			if it.Done() {
				break
			}
			maxV = it.Cur()
		} else {
			if !it.SeekGE(maxV) {
				break
			}
			maxV = it.Cur()
		}
		p++
		if p == k {
			p = 0
		}
	}
	if tail {
		return j.flush(idx)
	}
	return nil
}
