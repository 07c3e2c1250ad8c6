// Package monetdb models the classical relational column-store baseline of
// the paper's evaluation (§IV-A2): vertically partitioned two-column tables
// queried with full column scans, selection filters, and hash joins with
// full materialization between operators. There are no secondary indexes:
// every selection pays a scan of its predicate's table, which — together
// with pairwise-join asymptotics on cyclic queries — is what puts MonetDB
// two to three orders of magnitude behind the other engines in Table II.
package monetdb

import (
	"context"

	"repro/internal/engine"
	"repro/internal/engine/pairwise"
	"repro/internal/query"
	"repro/internal/store"
)

// New returns the MonetDB-like engine over st.
func New(st *store.Store) engine.Engine {
	return pairwise.New("monetdb", &provider{st: st})
}

type provider struct {
	st *store.Store
}

// resolve returns the encoded id of a constant node, with ok=false when the
// constant does not occur in the data (empty scan).
func (p *provider) resolve(n query.Node) (uint32, bool, bool) {
	if n.IsVar {
		return 0, false, true
	}
	id, ok := p.st.Dict().Lookup(n.Term)
	return id, true, ok
}

// Scan is a full scan of the predicate's table (or of the whole triple
// table for variable predicates) with selection filters applied row by row.
// The scan polls ctx on a stride: a full column scan over a large dataset
// is exactly the loop a cancelled request must be able to abandon.
func (p *provider) Scan(ctx context.Context, pat query.Pattern) (*pairwise.Table, error) {
	out := &pairwise.Table{Vars: pairwise.PatternVars(pat)}
	sVal, sBound, sOK := p.resolve(pat.S)
	pVal, pBound, pOK := p.resolve(pat.P)
	oVal, oBound, oOK := p.resolve(pat.O)
	if !sOK || !pOK || !oOK {
		return out, nil
	}
	emit := func(s, pr, o uint32) {
		if sBound && s != sVal || oBound && o != oVal || pBound && pr != pVal {
			return
		}
		row, ok := bindRow(pat, s, pr, o, len(out.Vars))
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	tick := engine.NewTicker(ctx)
	if pBound {
		rel := p.st.Relation(pVal)
		if rel == nil {
			return out, nil
		}
		for i := range rel.S {
			if err := tick.Check(); err != nil {
				return nil, err
			}
			emit(rel.S[i], pVal, rel.O[i])
		}
		return out, nil
	}
	for t := range p.st.All() {
		if err := tick.Check(); err != nil {
			return nil, err
		}
		emit(t.S, t.P, t.O)
	}
	return out, nil
}

// bindRow produces the variable row for a matching triple, handling
// repeated variables (?x p ?x) by consistency checks.
func bindRow(pat query.Pattern, s, pr, o uint32, nvars int) ([]uint32, bool) {
	row := make([]uint32, 0, nvars)
	bound := map[string]uint32{}
	for _, pv := range []struct {
		n query.Node
		v uint32
	}{{pat.S, s}, {pat.P, pr}, {pat.O, o}} {
		if !pv.n.IsVar {
			continue
		}
		if prev, ok := bound[pv.n.Var]; ok {
			if prev != pv.v {
				return nil, false
			}
			continue
		}
		bound[pv.n.Var] = pv.v
		row = append(row, pv.v)
	}
	return row, true
}

// CanBind: a column store without secondary indexes cannot do per-tuple
// lookups; every join is a hash join over scans.
func (p *provider) CanBind(query.Pattern, []string) bool { return false }

// ScanBoundEach is never called (CanBind is false).
func (p *provider) ScanBoundEach(ctx context.Context, pat query.Pattern, bound []string, values []uint32, emit func([]uint32)) error {
	panic("monetdb: ScanBoundEach on scan-only provider")
}

// EstimateCard uses the table statistics ("histograms" in the paper's
// setup): rows divided by distinct counts per bound column.
func (p *provider) EstimateCard(pat query.Pattern) float64 {
	_, sBound, sOK := p.resolve(pat.S)
	pVal, pBound, pOK := p.resolve(pat.P)
	_, oBound, oOK := p.resolve(pat.O)
	if !sOK || !pOK || !oOK {
		return 0
	}
	if !pBound {
		est := float64(p.st.NumTriples())
		if sBound {
			est /= 20 // no per-subject stats without a predicate; guess
		}
		if oBound {
			est /= 20
		}
		return est
	}
	stats := p.st.Stats(pVal)
	est := float64(stats.Rows)
	if sBound && stats.DistinctS > 0 {
		est /= float64(stats.DistinctS)
	}
	if oBound && stats.DistinctO > 0 {
		est /= float64(stats.DistinctO)
	}
	return est
}

// EstimateBound is never used (CanBind is false) but must satisfy the
// interface; fall back to the unbound estimate.
func (p *provider) EstimateBound(pat query.Pattern, bound []string) float64 {
	return p.EstimateCard(pat)
}

// EstimateDistinct uses per-table distinct statistics.
func (p *provider) EstimateDistinct(pat query.Pattern, v string) float64 {
	pVal, pBound, pOK := p.resolve(pat.P)
	if !pOK {
		return 0
	}
	if !pBound {
		return float64(p.st.NumTriples())
	}
	stats := p.st.Stats(pVal)
	if pat.S.IsVar && pat.S.Var == v {
		return float64(stats.DistinctS)
	}
	if pat.O.IsVar && pat.O.Var == v {
		return float64(stats.DistinctO)
	}
	return float64(stats.Rows)
}
