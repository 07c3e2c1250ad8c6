package plan

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/rdf"
)

// maxSym caps the automorphism groups a plan keeps. Every enumerated
// binding is compared with each of its images, and a bigger group buys
// little more: the orbits it folds are already 24 bindings wide.
const maxSym = 24

// symmetry returns the BGP's automorphism group as permutations of the
// root's attributes, identity first, or nil when the plan keeps none: when
// the group is trivial or larger than maxSym, when a predicate is a
// variable, or when the root does not bind every variable (the final join
// would then enumerate materialized node results, not the pattern itself).
// The search returns at once when no two constant-free patterns share a
// predicate, as in every LUBM query.
func (p *Plan) symmetry(q *query.BGP) [][]int {
	if !sharesPredicate(q) || !p.RootCoversAllVars() {
		return nil
	}
	vars, group := automorphisms(q, maxSym)
	if len(group) <= 1 || len(group) > maxSym {
		return nil
	}
	attrs := p.Root.Attrs
	at := make(map[string]int, len(attrs))
	for i, a := range attrs {
		at[a.Name] = i
	}
	varAt := make([]int, len(vars))
	for i, v := range vars {
		varAt[i] = at[v]
	}
	out := make([][]int, len(group))
	for g, sigma := range group {
		perm := make([]int, len(attrs))
		for i := range perm {
			perm[i] = i
		}
		for v, w := range sigma {
			perm[varAt[v]] = varAt[w]
		}
		out[g] = perm
	}
	return out
}

// sharesPredicate reports whether every predicate of q is a constant and
// two constant-free patterns share one: only then can a permutation of the
// variables map a pattern to another.
func sharesPredicate(q *query.BGP) bool {
	shared := false
	for i, a := range q.Patterns {
		if a.P.IsVar {
			return false
		}
		if !a.S.IsVar || !a.O.IsVar {
			continue
		}
		for _, b := range q.Patterns[i+1:] {
			if b.S.IsVar && b.O.IsVar && b.P.Term == a.P.Term {
				shared = true
			}
		}
	}
	return shared
}

// automorphisms enumerates the permutations σ of q's variables that map
// its set of triple patterns onto itself, each predicate to itself. A
// pattern holding a constant subject or object maps only to itself, so its
// variables are fixed points and the group never depends on the constants'
// values. It returns the variables in order of first appearance and each σ
// as σ[i] = the index of σ(vars[i]), identity first, and stops once it has
// found limit+1 of them. Every predicate must be a constant.
func automorphisms(q *query.BGP, limit int) (vars []string, group [][]int) {
	idx := map[string]int{}
	varOf := func(n query.Node) int {
		i, ok := idx[n.Var]
		if !ok {
			i = len(vars)
			idx[n.Var] = i
			vars = append(vars, n.Var)
		}
		return i
	}
	type edge struct{ s, p, o int }
	var preds []rdf.Term
	var edges []edge
	var fixedVars []int
	for _, pat := range q.Patterns {
		if !pat.S.IsVar || !pat.O.IsVar {
			for _, n := range []query.Node{pat.S, pat.O} {
				if n.IsVar {
					fixedVars = append(fixedVars, varOf(n))
				}
			}
			continue
		}
		p := slices.Index(preds, pat.P.Term)
		if p < 0 {
			p = len(preds)
			preds = append(preds, pat.P.Term)
		}
		edges = append(edges, edge{varOf(pat.S), p, varOf(pat.O)})
	}
	n := len(vars)
	fixed := make([]bool, n)
	for _, v := range fixedVars {
		fixed[v] = true
	}
	has := make(map[edge]bool, len(edges))
	// sig[v] counts v's pattern ends per predicate and direction; σ maps v
	// only to a variable with the same counts. byLast[k] lists the edges
	// whose later endpoint is variable k: they are checked once σ(k) is
	// chosen.
	sig := make([][]int, n)
	for v := range sig {
		sig[v] = make([]int, 3*len(preds))
	}
	byLast := make([][]edge, n)
	for _, e := range edges {
		if has[e] {
			continue
		}
		has[e] = true
		if e.s == e.o {
			sig[e.s][3*e.p+2]++
		} else {
			sig[e.s][3*e.p]++
			sig[e.o][3*e.p+1]++
		}
		k := max(e.s, e.o)
		byLast[k] = append(byLast[k], e)
	}

	sigma := make([]int, n)
	used := make([]bool, n)
	var search func(k int) bool
	search = func(k int) bool {
		if k == n {
			group = append(group, slices.Clone(sigma))
			return len(group) <= limit
		}
		for c := 0; c < n; c++ {
			if used[c] || (fixed[k] || fixed[c]) && c != k || !slices.Equal(sig[k], sig[c]) {
				continue
			}
			sigma[k] = c
			ok := true
			for _, e := range byLast[k] {
				if !has[edge{sigma[e.s], e.p, sigma[e.o]}] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			used[c] = true
			more := search(k + 1)
			used[c] = false
			if !more {
				return false
			}
		}
		return true
	}
	search(0)
	return vars, group
}

// SymBound returns the attribute the symmetry bound hangs on — the first of
// the root's attributes whose orbit under Sym has more than one member —
// and that orbit's other members, which the join enumerates only at or
// above a's value. a is -1 when the plan keeps no group.
func (p *Plan) SymBound() (a int, above []int) {
	if p.Sym == nil {
		return -1, nil
	}
	a = len(p.Root.Attrs)
	for _, perm := range p.Sym {
		for i, w := range perm[:a] {
			if w != i {
				a = i
				break
			}
		}
	}
	for _, perm := range p.Sym {
		if w := perm[a]; w != a && !slices.Contains(above, w) {
			above = append(above, w)
		}
	}
	slices.Sort(above)
	return a, above
}

// generators returns a generating set of Sym, chosen greedily in Sym's
// order: each element not generated by those before it.
func (p *Plan) generators() [][]int {
	var gens [][]int
	var closure [][]int
	for _, perm := range p.Sym[1:] {
		if slices.ContainsFunc(closure, func(c []int) bool { return slices.Equal(c, perm) }) {
			continue
		}
		gens = append(gens, perm)
		closure = [][]int{p.Sym[0]}
		for k := 0; k < len(closure); k++ {
			for _, g := range gens {
				c := make([]int, len(g))
				for i := range c {
					c[i] = closure[k][g[i]]
				}
				if !slices.ContainsFunc(closure, func(d []int) bool { return slices.Equal(d, c) }) {
					closure = append(closure, c)
				}
			}
		}
	}
	return gens
}

// SymString renders Sym as its order, its generators in cycle notation
// over the root's attribute names, and the bound: "sym=3 (x y z) bound
// y,z≥x". Sym must be non-nil.
func (p *Plan) SymString() string {
	var b strings.Builder
	b.WriteString("sym=")
	b.WriteString(strconv.Itoa(len(p.Sym)))
	attrs := p.Root.Attrs
	for _, g := range p.generators() {
		b.WriteByte(' ')
		seen := make([]bool, len(g))
		for i := range g {
			if seen[i] || g[i] == i {
				continue
			}
			b.WriteByte('(')
			for k := i; !seen[k]; k = g[k] {
				if k != i {
					b.WriteByte(' ')
				}
				seen[k] = true
				b.WriteString(attrs[k].Name)
			}
			b.WriteByte(')')
		}
	}
	a, above := p.SymBound()
	b.WriteString(" bound ")
	for i, w := range above {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(attrs[w].Name)
	}
	b.WriteString("≥")
	b.WriteString(attrs[a].Name)
	return b.String()
}
