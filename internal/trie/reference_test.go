// reference_test.go preserves the pre-arena trie representation — one heap
// object per node, children addressed through a pointer slice, built by a
// comparison sort — as an executable specification. It exists for two
// consumers only: the property tests assert the flat arena trie is
// observationally identical to it on random inputs, and
// BenchmarkTrieBuildPointer times it beside BenchmarkTrieBuildFlat.
package trie

import (
	"sort"

	"repro/internal/set"
)

// RefNode is one pointer-trie node: a set of values at this level and, for
// non-leaf levels, one child per value (addressed by the value's rank).
type RefNode struct {
	set      *set.Set
	children []*RefNode // nil at the leaf level; otherwise len == set.Len()
}

// Set returns the values present at this node's level.
func (n *RefNode) Set() *set.Set { return n.set }

// IsLeaf reports whether this node is at the last level of its trie.
func (n *RefNode) IsLeaf() bool { return n.children == nil }

// ChildByValue returns the child reached by descending with value v, or
// (nil, false) if v is not present. On a leaf it returns (nil, true) when v
// is a member.
func (n *RefNode) ChildByValue(v uint32) (*RefNode, bool) {
	r, ok := n.set.Rank(v)
	if !ok {
		return nil, false
	}
	if n.children == nil {
		return nil, true
	}
	return n.children[r], true
}

// Child returns the child for the i-th value. It panics on leaves.
func (n *RefNode) Child(i int) *RefNode {
	if n.children == nil {
		panic("trie: Child on leaf RefNode")
	}
	return n.children[i]
}

// RefTrie is the pointer-per-node trie.
type RefTrie struct {
	arity  int
	tuples int
	root   *RefNode
}

// Arity returns the number of attributes (levels).
func (t *RefTrie) Arity() int { return t.arity }

// Len returns the number of distinct tuples stored.
func (t *RefTrie) Len() int { return t.tuples }

// Root returns the root node.
func (t *RefTrie) Root() *RefNode { return t.root }

// BuildReference builds a RefTrie exactly the way the arena trie's
// predecessor did: a closure-based lexicographic sort.Slice over the row
// permutation, then a recursive construction allocating per-node value
// slices and set objects.
func BuildReference(cols [][]uint32, policy set.Policy) *RefTrie {
	arity := len(cols)
	if arity == 0 {
		panic("trie: BuildReference with zero columns")
	}
	n := len(cols[0])
	for _, c := range cols[1:] {
		if len(c) != n {
			panic("trie: ragged columns")
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		for _, col := range cols {
			if col[ia] != col[ib] {
				return col[ia] < col[ib]
			}
		}
		return false
	})
	b := &refBuilder{cols: cols, policy: policy}
	root := b.build(idx, 0)
	if root == nil {
		root = &RefNode{set: set.Empty}
	}
	return &RefTrie{arity: arity, tuples: b.tuples, root: root}
}

type refBuilder struct {
	cols   [][]uint32
	policy set.Policy
	tuples int
}

func (b *refBuilder) build(idx []int, level int) *RefNode {
	if len(idx) == 0 {
		return nil
	}
	col := b.cols[level]
	leaf := level == len(b.cols)-1

	var vals []uint32
	var starts []int
	prev := uint32(0)
	for i, r := range idx {
		v := col[r]
		if i == 0 || v != prev {
			vals = append(vals, v)
			starts = append(starts, i)
			prev = v
		}
	}
	s := set.FromSorted(vals, b.policy)
	if leaf {
		b.tuples += len(vals)
		return &RefNode{set: s}
	}
	children := make([]*RefNode, len(vals))
	for gi := range vals {
		lo := starts[gi]
		hi := len(idx)
		if gi+1 < len(starts) {
			hi = starts[gi+1]
		}
		children[gi] = b.build(idx[lo:hi], level+1)
	}
	return &RefNode{set: s, children: children}
}

// Each enumerates every tuple in lexicographic order, reusing the tuple
// slice between calls; enumeration stops early if fn returns false.
func (t *RefTrie) Each(fn func(tuple []uint32) bool) {
	buf := make([]uint32, t.arity)
	t.each(t.root, 0, buf, fn)
}

func (t *RefTrie) each(n *RefNode, level int, buf []uint32, fn func([]uint32) bool) bool {
	cont := true
	n.set.Iterate(func(i int, v uint32) bool {
		buf[level] = v
		if n.IsLeaf() {
			cont = fn(buf)
		} else {
			cont = t.each(n.children[i], level+1, buf, fn)
		}
		return cont
	})
	return cont
}

// Rows materializes every tuple.
func (t *RefTrie) Rows() [][]uint32 {
	out := make([][]uint32, 0, max(t.tuples, 0))
	t.Each(func(tuple []uint32) bool {
		out = append(out, append([]uint32(nil), tuple...))
		return true
	})
	return out
}

// Lookup descends with the prefix and returns the node reached, nil for a
// full-arity prefix that exists, or (nil, false) if absent.
func (t *RefTrie) Lookup(prefix ...uint32) (*RefNode, bool) {
	if len(prefix) > t.arity {
		panic("trie: Lookup prefix longer than arity")
	}
	n := t.root
	for _, v := range prefix {
		child, ok := n.ChildByValue(v)
		if !ok {
			return nil, false
		}
		n = child
	}
	return n, true
}
