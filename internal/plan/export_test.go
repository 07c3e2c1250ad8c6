package plan

import (
	"slices"

	"repro/internal/query"
)

// MemoCap exposes the bound on a Memo.
const MemoCap = memoCap

// Len returns how many plans m holds.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Automorphisms and SharesPredicate expose the group search to the
// package's external tests.
var (
	Automorphisms   = automorphisms
	SharesPredicate = sharesPredicate
)

// KeepsGroup reports whether a plan whose root is one node binding every
// variable of q keeps q's group. It skips choosing a GHD, which for the
// 5-clique takes seconds.
func KeepsGroup(q *query.BGP) bool {
	root := &Node{}
	for _, pat := range q.Patterns {
		for _, v := range pat.Vars() {
			if !slices.Contains(root.Vars, v) {
				root.Vars = append(root.Vars, v)
				root.Attrs = append(root.Attrs, Attr{Name: v})
			}
		}
	}
	return (&Plan{Root: root}).symmetry(q) != nil
}
