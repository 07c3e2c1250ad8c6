// Package rdf3x models the RDF-3X specialized engine (Neumann & Weikum)
// used as a baseline in the paper: a triple table indexed by clustered
// B+-tree-style indexes on all six permutations of (subject, predicate,
// object), aggregate indexes providing exact selectivities, and a pairwise
// executor whose join orders are chosen from those selectivities. We model
// the clustered indexes as sorted triple arrays with binary-search range
// scans, which preserves the asymptotics (O(log N + result) per access)
// without the paging machinery.
package rdf3x

import (
	"context"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/engine/pairwise"
	"repro/internal/query"
	"repro/internal/store"
)

// permutation orders for the six clustered indexes.
var perms = [6][3]int{
	{0, 1, 2}, // SPO
	{0, 2, 1}, // SOP
	{1, 0, 2}, // PSO
	{1, 2, 0}, // POS
	{2, 0, 1}, // OSP
	{2, 1, 0}, // OPS
}

// New builds the RDF-3X-like engine over st, constructing all six
// permutation indexes eagerly (RDF-3X builds its full set at load).
func New(st *store.Store) engine.Engine {
	p := &provider{st: st}
	for i, perm := range perms {
		idx := slices.Collect(st.All())
		perm := perm
		sort.Slice(idx, func(a, b int) bool {
			ta, tb := key(idx[a], perm), key(idx[b], perm)
			return ta[0] < tb[0] || ta[0] == tb[0] && (ta[1] < tb[1] || ta[1] == tb[1] && ta[2] < tb[2])
		})
		p.indexes[i] = idx
	}
	return pairwise.New("rdf3x", p)
}

func key(t store.Triple, perm [3]int) [3]uint32 {
	pos := [3]uint32{t.S, t.P, t.O}
	return [3]uint32{pos[perm[0]], pos[perm[1]], pos[perm[2]]}
}

type provider struct {
	st      *store.Store
	indexes [6][]store.Triple
}

// boundSpec captures which positions are fixed.
type boundSpec struct {
	vals  [3]uint32 // by position: S, P, O
	fixed [3]bool
	ok    bool // all constants present in the dictionary
}

func (p *provider) spec(pat query.Pattern, bound []string, values []uint32) boundSpec {
	s := boundSpec{ok: true}
	set := func(pos int, n query.Node) {
		if n.IsVar {
			for i, b := range bound {
				if b == n.Var {
					s.vals[pos] = values[i]
					s.fixed[pos] = true
				}
			}
			return
		}
		id, ok := p.st.Dict().Lookup(n.Term)
		if !ok {
			s.ok = false
			return
		}
		s.vals[pos] = id
		s.fixed[pos] = true
	}
	set(0, pat.S)
	set(1, pat.P)
	set(2, pat.O)
	return s
}

// chooseIndex picks a permutation whose prefix covers the fixed positions.
// With all six permutations available, any subset of fixed positions has a
// covering prefix.
func chooseIndex(fixed [3]bool) int {
	bestIdx, bestLen := 0, -1
	for i, perm := range perms {
		l := 0
		for _, pos := range perm {
			if fixed[pos] {
				l++
			} else {
				break
			}
		}
		covered := 0
		for _, f := range fixed {
			if f {
				covered++
			}
		}
		if l == covered {
			return i // full prefix cover; done
		}
		if l > bestLen {
			bestIdx, bestLen = i, l
		}
	}
	return bestIdx
}

// rangeScan returns the [lo, hi) slice of the chosen index matching the
// fixed prefix.
func (p *provider) rangeScan(s boundSpec) []store.Triple {
	idxNo := chooseIndex(s.fixed)
	perm := perms[idxNo]
	idx := p.indexes[idxNo]
	prefix := make([]uint32, 0, 3)
	for _, pos := range perm {
		if s.fixed[pos] {
			prefix = append(prefix, s.vals[pos])
		} else {
			break
		}
	}
	lo := sort.Search(len(idx), func(i int) bool { return !lessPrefix(key(idx[i], perm), prefix) })
	hi := sort.Search(len(idx), func(i int) bool { return greaterPrefix(key(idx[i], perm), prefix) })
	return idx[lo:hi]
}

func lessPrefix(k [3]uint32, prefix []uint32) bool {
	for i, v := range prefix {
		if k[i] != v {
			return k[i] < v
		}
	}
	return false
}

func greaterPrefix(k [3]uint32, prefix []uint32) bool {
	for i, v := range prefix {
		if k[i] != v {
			return k[i] > v
		}
	}
	return false
}

// emitMatches streams index-range rows, applying any fixed positions not
// covered by the prefix and repeated-variable consistency. The range loop
// polls ctx on a stride so large scans abandon promptly when cancelled.
func (p *provider) emitMatches(ctx context.Context, pat query.Pattern, s boundSpec, emit func([]uint32)) error {
	if !s.ok {
		return nil
	}
	patVars := pairwise.PatternVars(pat)
	row := make([]uint32, len(patVars))
	tick := engine.NewTicker(ctx)
	for _, t := range p.rangeScan(s) {
		if err := tick.Check(); err != nil {
			return err
		}
		pos := [3]uint32{t.S, t.P, t.O}
		if s.fixed[0] && pos[0] != s.vals[0] || s.fixed[1] && pos[1] != s.vals[1] || s.fixed[2] && pos[2] != s.vals[2] {
			continue
		}
		if fillRow(pat, pos, patVars, row) {
			emit(row)
		}
	}
	return nil
}

// fillRow assigns pattern variables from a triple, checking repeated vars.
func fillRow(pat query.Pattern, pos [3]uint32, patVars []string, row []uint32) bool {
	assigned := make(map[string]uint32, len(patVars))
	for i, n := range []query.Node{pat.S, pat.P, pat.O} {
		if !n.IsVar {
			continue
		}
		if prev, ok := assigned[n.Var]; ok {
			if prev != pos[i] {
				return false
			}
			continue
		}
		assigned[n.Var] = pos[i]
	}
	for i, v := range patVars {
		row[i] = assigned[v]
	}
	return true
}

// Scan implements pairwise.ScanProvider via an index range scan.
func (p *provider) Scan(ctx context.Context, pat query.Pattern) (*pairwise.Table, error) {
	out := &pairwise.Table{Vars: pairwise.PatternVars(pat)}
	s := p.spec(pat, nil, nil)
	err := p.emitMatches(ctx, pat, s, func(row []uint32) {
		out.Rows = append(out.Rows, append([]uint32(nil), row...))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CanBind: all six permutations exist, so any binding is a prefix lookup.
func (p *provider) CanBind(query.Pattern, []string) bool { return true }

// ScanBoundEach implements indexed lookups.
func (p *provider) ScanBoundEach(ctx context.Context, pat query.Pattern, bound []string, values []uint32, emit func([]uint32)) error {
	s := p.spec(pat, bound, values)
	return p.emitMatches(ctx, pat, s, emit)
}

// EstimateCard returns the exact range size — RDF-3X's aggregate indexes
// give exact counts for any bound prefix.
func (p *provider) EstimateCard(pat query.Pattern) float64 {
	s := p.spec(pat, nil, nil)
	if !s.ok {
		return 0
	}
	return float64(len(p.rangeScan(s)))
}

// EstimateBound estimates matches per lookup: exact total divided by the
// distinct count of the bound prefix.
func (p *provider) EstimateBound(pat query.Pattern, bound []string) float64 {
	total := p.EstimateCard(pat)
	if total == 0 {
		return 0
	}
	d := total
	for _, v := range bound {
		dv := p.EstimateDistinct(pat, v)
		if dv > 1 {
			d = dv
		}
	}
	est := total / d
	if est < 1 {
		est = 1
	}
	return est
}

// EstimateDistinct estimates the number of distinct values of v in the
// pattern's rows from the aggregate-index statistics: per-predicate
// distinct subject/object counts capped by the pattern's exact range size.
// (RDF-3X's aggregate indexes make these lookups cheap; importantly the
// estimate must be O(log N), since it runs inside join ordering.)
func (p *provider) EstimateDistinct(pat query.Pattern, v string) float64 {
	s := p.spec(pat, nil, nil)
	if !s.ok {
		return 0
	}
	rangeSize := float64(len(p.rangeScan(s)))
	if pat.P.IsVar && pat.P.Var == v {
		return min(float64(len(p.st.Predicates())), rangeSize)
	}
	if s.fixed[1] { // predicate bound: use per-predicate statistics
		stats := p.st.Stats(s.vals[1])
		switch {
		case pat.S.IsVar && pat.S.Var == v:
			return min(float64(stats.DistinctS), rangeSize)
		case pat.O.IsVar && pat.O.Var == v:
			return min(float64(stats.DistinctO), rangeSize)
		}
		return rangeSize
	}
	// Variable predicate: distinct subjects/objects across the dataset are
	// not tracked exactly; assume mostly-distinct within the range.
	return rangeSize
}
