package plan

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

// This file prices a query from the store's per-predicate statistics
// alone, without compiling it. The price is what the server's
// cost×frequency plan-cache eviction keeps expensive plans by, and what the
// shard planner (internal/shard) weighs a scatter against to decline it.
// It prices the plan the emptyheaded and auto engines serve: the fully
// optimized GHD plan, whose pushdown roughly halves raw intersection work
// but pays ~4× per emitted row for materializing and decoding
// intermediates, or, for a query with no join, a scan of its inputs.

// varStat accumulates one variable's per-pattern statistics.
type varStat struct {
	count      int     // patterns containing the variable
	minD, maxD float64 // smallest/largest per-pattern distinct-value estimate
}

// Profile is the statistical summary of a query that the cost formulas
// consume. All quantities are estimates derived from per-predicate
// statistics (rows, distinct subjects/objects) under the usual uniformity
// assumptions.
type Profile struct {
	// Empty is set when a constant is absent from the dictionary: the
	// result is necessarily empty and every engine is equally cheap.
	Empty bool
	// JoinVars is the number of variables shared by ≥2 patterns.
	JoinVars int
	// ScanRows is the summed post-selection pattern cardinality — the cost
	// of scanning every input once.
	ScanRows float64
	// EstOut is the estimated result cardinality (System-R style fold:
	// ascending-size pattern joins with division by the larger distinct
	// count per shared variable).
	EstOut float64
	// IntersectWork estimates the total set-intersection work of one
	// worst-case optimal pass: per join variable, the smallest operand
	// drives a galloping intersection over the larger ones.
	IntersectWork float64
}

// ProfileQuery computes a query's statistical profile over st.
func ProfileQuery(q *query.BGP, st *store.Store) (Profile, error) {
	if err := q.Validate(); err != nil {
		return Profile{}, err
	}
	var p Profile
	vars := map[string]*varStat{}
	observe := func(name string, distinct float64) {
		vs := vars[name]
		if vs == nil {
			vs = &varStat{minD: distinct, maxD: distinct}
			vars[name] = vs
		}
		vs.count++
		if distinct < vs.minD {
			vs.minD = distinct
		}
		if distinct > vs.maxD {
			vs.maxD = distinct
		}
	}

	type pat struct {
		size float64
		vars []string
	}
	pats := make([]pat, 0, len(q.Patterns))
	for _, qp := range q.Patterns {
		if qp.P.IsVar {
			// Variable predicate: full triple table; per-position distinct
			// counts are unknown, so the row count bounds them.
			size := float64(st.NumTriples())
			var pv []string
			for _, n := range []query.Node{qp.S, qp.P, qp.O} {
				if n.IsVar {
					observe(n.Var, size)
					pv = append(pv, n.Var)
				} else if _, ok := st.Dict().Lookup(n.Term); !ok {
					return Profile{Empty: true}, nil
				}
			}
			pats = append(pats, pat{size: size, vars: pv})
			continue
		}
		pid, ok := st.Dict().Lookup(qp.P.Term)
		if !ok {
			return Profile{Empty: true}, nil
		}
		s := st.Stats(pid)
		if s.Rows == 0 {
			return Profile{Empty: true}, nil
		}
		rel := st.Relation(pid)
		var sid, oid uint32
		if !qp.S.IsVar {
			if sid, ok = st.Dict().Lookup(qp.S.Term); !ok {
				return Profile{Empty: true}, nil
			}
		}
		if !qp.O.IsVar {
			if oid, ok = st.Dict().Lookup(qp.O.Term); !ok {
				return Profile{Empty: true}, nil
			}
		}
		// Constant-selection patterns are answered exactly from the trie
		// (one root lookup, the same index the engines descend) instead of
		// by uniformity division. The difference matters: LUBM's rdf:type
		// relation puts 1/3 of its rows under one of twelve type values, so
		// rows/distinct underestimates the Student selection 4× and
		// overestimates the Department selection 100× — and the price
		// below keys on exactly those cardinalities.
		size := float64(s.Rows)
		var pv []string
		switch {
		case !qp.S.IsVar && !qp.O.IsVar:
			child, ok := rel.TrieSO(set.PolicyAdaptive).Root().ChildByValue(sid)
			if !ok {
				return Profile{Empty: true}, nil
			}
			if _, ok := child.ChildByValue(oid); !ok {
				return Profile{Empty: true}, nil
			}
			size = 1
		case !qp.S.IsVar:
			child, ok := rel.TrieSO(set.PolicyAdaptive).Root().ChildByValue(sid)
			if !ok {
				return Profile{Empty: true}, nil
			}
			// Objects under one subject are distinct by triple uniqueness.
			size = float64(child.Set().Len())
			observe(qp.O.Var, size)
			pv = append(pv, qp.O.Var)
		case !qp.O.IsVar:
			child, ok := rel.TrieOS(set.PolicyAdaptive).Root().ChildByValue(oid)
			if !ok {
				return Profile{Empty: true}, nil
			}
			size = float64(child.Set().Len())
			observe(qp.S.Var, size)
			pv = append(pv, qp.S.Var)
		default:
			observe(qp.S.Var, math.Min(math.Max(float64(s.DistinctS), 1), math.Max(size, 1)))
			observe(qp.O.Var, math.Min(math.Max(float64(s.DistinctO), 1), math.Max(size, 1)))
			pv = append(pv, qp.S.Var, qp.O.Var)
		}
		pats = append(pats, pat{size: size, vars: pv})
	}

	for _, pt := range pats {
		p.ScanRows += pt.size
	}

	// Output estimate: fold patterns in ascending size order; each shared
	// variable divides by its largest distinct count.
	slices.SortFunc(pats, func(a, b pat) int { return cmp.Compare(a.size, b.size) })
	rows := 1.0
	bound := map[string]bool{}
	for _, pt := range pats {
		rows *= pt.size
		for _, v := range pt.vars {
			if bound[v] {
				rows /= math.Max(vars[v].maxD, 1)
			}
			bound[v] = true
		}
	}
	p.EstOut = math.Max(rows, 1)

	// Intersection work: each join variable's leapfrog pass gallops the
	// smallest operand through the others — linear in the smallest set with
	// a logarithmic probe factor into the larger ones.
	for _, vs := range vars {
		if vs.count >= 2 {
			p.JoinVars++
			p.IntersectWork += vs.minD * float64(vs.count) * (1 + math.Log2(math.Max(vs.maxD/vs.minD, 1)))
		}
	}
	return p, nil
}

// Cost model constants, fit to the measured LUBM scale-1 crossovers (the
// README records the fitting runs): the hybrid plan's pushdown roughly
// halves raw intersection work, but every emitted row flows through child
// materialization and layout decode.
const (
	hybridIntersectFactor = 0.6
	hybridRowFactor       = 4.0
)

// Cost prices the query in abstract "set elements touched" units: 0 when
// the result is necessarily empty, the scan of every input for a query
// with no join variable, and the GHD plan's intersection work plus its
// per-row cost otherwise.
func (p Profile) Cost() float64 {
	switch {
	case p.Empty:
		return 0
	case p.JoinVars == 0:
		return p.ScanRows
	}
	return hybridIntersectFactor*p.IntersectWork + hybridRowFactor*p.EstOut
}
