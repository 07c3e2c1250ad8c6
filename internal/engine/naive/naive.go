// Package naive implements a deliberately simple reference engine: pattern-
// at-a-time backtracking over hash indexes on the triple table. It is the
// correctness oracle for every other engine in the repository — slow but
// obviously right. The only concession to performance is a greedy dynamic
// pattern ordering (cheapest candidate list first), without which the LUBM
// test fixtures would take minutes.
package naive

import (
	"context"
	"slices"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/store"
)

// Engine is the reference implementation of engine.Engine.
type Engine struct {
	st *store.Store
	// Hash indexes over the triple table, built eagerly: by subject, by
	// predicate, by object, and the raw table.
	byS, byP, byO map[uint32][]store.Triple
	all           []store.Triple
}

// New builds the reference engine (and its hash indexes) over st.
func New(st *store.Store) *Engine {
	e := &Engine{
		st:  st,
		byS: map[uint32][]store.Triple{},
		byP: map[uint32][]store.Triple{},
		byO: map[uint32][]store.Triple{},
		all: slices.Collect(st.All()),
	}
	for _, t := range e.all {
		e.byS[t.S] = append(e.byS[t.S], t)
		e.byP[t.P] = append(e.byP[t.P], t)
		e.byO[t.O] = append(e.byO[t.O], t)
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "naive" }

// binding maps variable names to encoded values during backtracking.
type binding map[string]uint32

// Open implements engine.Engine by streaming the backtracking search
// through a cursor, always expanding the pattern with the fewest candidate
// triples next. Cancellation is polled on a stride inside the candidate
// loops, so even a pathological search stops promptly.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Err(); err != nil {
		return nil, err
	}
	cur := engine.NewGenerator(opts.Ctx, q.Select, func(ctx context.Context, out *engine.Emitter) error {
		b := binding{}
		var seen *engine.RowSet
		if q.Distinct {
			seen = &engine.RowSet{}
		}
		remaining := make([]query.Pattern, len(q.Patterns))
		copy(remaining, q.Patterns)
		s := &search{e: e, tick: engine.NewTicker(ctx)}
		return s.solve(remaining, b, func() error {
			row := out.Slot()
			for i, v := range q.Select {
				row[i] = b[v]
			}
			if seen != nil && !seen.Add(row) {
				return nil
			}
			return out.Push()
		})
	})
	return engine.Limit(cur, opts.Offset, opts.MaxRows), nil
}

// search is one execution's backtracking state: the engine's indexes plus
// the strided context poll.
type search struct {
	e    *Engine
	tick *engine.Ticker
}

// candidates returns the cheapest candidate list for a pattern under the
// current bindings, or (nil, false) when a constant is absent from the data
// (no matches possible).
func (e *Engine) candidates(pat query.Pattern, b binding) ([]store.Triple, bool) {
	sv, sBound, sOK := e.resolve(pat.S, b)
	pv, pBound, pOK := e.resolve(pat.P, b)
	ov, oBound, oOK := e.resolve(pat.O, b)
	if !sOK || !pOK || !oOK {
		return nil, false
	}
	best := e.all
	if sBound && len(e.byS[sv]) < len(best) {
		best = e.byS[sv]
	}
	if pBound && len(e.byP[pv]) < len(best) {
		best = e.byP[pv]
	}
	if oBound && len(e.byO[ov]) < len(best) {
		best = e.byO[ov]
	}
	return best, true
}

func (s *search) solve(remaining []query.Pattern, b binding, emit func() error) error {
	if len(remaining) == 0 {
		return emit()
	}
	e := s.e
	// Pick the pattern with the smallest candidate list.
	bestIdx := -1
	var bestCands []store.Triple
	for i, pat := range remaining {
		cands, ok := e.candidates(pat, b)
		if !ok {
			return nil // a constant is absent: no solutions down this branch
		}
		if bestIdx < 0 || len(cands) < len(bestCands) {
			bestIdx, bestCands = i, cands
		}
	}
	pat := remaining[bestIdx]
	rest := make([]query.Pattern, 0, len(remaining)-1)
	rest = append(rest, remaining[:bestIdx]...)
	rest = append(rest, remaining[bestIdx+1:]...)

	sv, sBound, _ := e.resolve(pat.S, b)
	pv, pBound, _ := e.resolve(pat.P, b)
	ov, oBound, _ := e.resolve(pat.O, b)

	for _, t := range bestCands {
		if err := s.tick.Check(); err != nil {
			return err
		}
		if sBound && t.S != sv || pBound && t.P != pv || oBound && t.O != ov {
			continue
		}
		// Bind free variables, respecting repeated variables within the
		// pattern (e.g. ?x p ?x).
		var undo []string
		ok := true
		for _, posn := range []struct {
			n query.Node
			v uint32
		}{{pat.S, t.S}, {pat.P, t.P}, {pat.O, t.O}} {
			if !posn.n.IsVar {
				continue
			}
			if bound, exists := b[posn.n.Var]; exists {
				if bound != posn.v {
					ok = false
					break
				}
				continue
			}
			b[posn.n.Var] = posn.v
			undo = append(undo, posn.n.Var)
		}
		var err error
		if ok {
			err = s.solve(rest, b, emit)
		}
		for _, v := range undo {
			delete(b, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// resolve returns the value a position is fixed to (by constant or current
// binding). The third result is false when the position is a constant that
// does not occur anywhere in the data, in which case the pattern cannot
// match.
func (e *Engine) resolve(n query.Node, b binding) (uint32, bool, bool) {
	if n.IsVar {
		v, ok := b[n.Var]
		return v, ok, true
	}
	id, ok := e.st.Dict().Lookup(n.Term)
	if !ok {
		return 0, false, false
	}
	return id, true, true
}

var _ engine.Engine = (*Engine)(nil)
