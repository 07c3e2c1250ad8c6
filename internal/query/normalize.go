package query

import (
	"strconv"
	"strings"
)

// Normalize returns an α-renamed copy of q plus a canonical cache key for
// it. Variables are renamed to v0, v1, ... in order of first appearance in
// the pattern body, so two queries that differ only in variable names (and
// in the PREFIX sugar the parser already expands) normalize identically and
// can share a compiled plan. Pattern order, projection order, and DISTINCT
// are preserved — they are semantically (or plan-) relevant. LIMIT/OFFSET
// are deliberately dropped: they are execution-time parameters (callers map
// them onto engine.ExecOpts), so queries differing only in modifiers share
// one plan-cache entry.
//
// The returned BGP shares no mutable state with q, so it can be retained in
// a cache and handed to concurrent executions. The key is injective over
// normalized queries: it renders the projection, the DISTINCT flag, and
// every pattern using the dictionary's canonical term rendering.
func Normalize(q *BGP) (*BGP, string) {
	rename := map[string]string{}
	mapVar := func(name string) string {
		if n, ok := rename[name]; ok {
			return n
		}
		n := "v" + strconv.Itoa(len(rename))
		rename[name] = n
		return n
	}
	mapNode := func(n Node) Node {
		if n.IsVar {
			return Variable(mapVar(n.Var))
		}
		return n
	}

	norm := &BGP{Distinct: q.Distinct}
	for _, p := range q.Patterns {
		norm.Patterns = append(norm.Patterns, Pattern{
			S: mapNode(p.S),
			P: mapNode(p.P),
			O: mapNode(p.O),
		})
	}
	// Projected variables are bound in the body (Validate enforces this),
	// so every select variable already has a canonical name by now; mapVar
	// still handles unvalidated queries gracefully.
	for _, v := range q.Select {
		norm.Select = append(norm.Select, mapVar(v))
	}
	return norm, normKey(norm, false)
}

// Shape renders a normalized BGP (see Normalize) into its constant-lifted
// key: normKey with every subject and object constant replaced by the
// position marker "$". Predicate constants and variables stay, so two
// queries share a shape iff they differ only in their S/O constants. The
// planner's choices (GHD, attribute order, trie level orders) depend on
// which positions are bound and on predicate statistics, never on the
// value a position is bound to, so one plan compiled per shape serves
// every text of that shape once its constants are substituted
// (plan.Bind).
func Shape(norm *BGP) string { return normKey(norm, true) }

// normKey renders a normalized BGP into its cache key; lift renders S/O
// constants as "$", a token no term rendering or variable starts with.
func normKey(q *BGP, lift bool) string {
	var b strings.Builder
	b.WriteString("SELECT")
	if q.Distinct {
		b.WriteString(" DISTINCT")
	}
	for _, v := range q.Select {
		b.WriteString(" ?")
		b.WriteString(v)
	}
	b.WriteString(" {")
	for _, p := range q.Patterns {
		for pos, n := range []Node{p.S, p.P, p.O} {
			b.WriteByte(' ')
			switch {
			case n.IsVar:
				b.WriteString("?")
				b.WriteString(n.Var)
			case lift && pos != 1:
				b.WriteString("$")
			default:
				b.WriteString(n.Term.Key())
			}
		}
		b.WriteString(" .")
	}
	b.WriteString(" }")
	return b.String()
}
