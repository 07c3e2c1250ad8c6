package live

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// The overlay evaluator implements the classic incremental-view-maintenance
// delta rules for conjunctive queries under bag semantics. Let B be the
// base triple set, D ⊆ B the tombstones, I the inserts (disjoint from B),
// B1 = B \ D and B2 = B1 ∪ I the overlay. For a BGP with patterns
// p_0..p_{k-1}:
//
//	Q(B1) = Q(B)  − Σ_i Q[p_j<i ← B1, p_i ← D, p_j>i ← B]
//	Q(B2) = Q(B1) + Σ_i Q[p_j<i ← B1, p_i ← I, p_j>i ← B2]
//
// Every correction term pins exactly one pattern to the (small) delta, so
// its cost is delta-bounded. The base term Q(B) streams from the wrapped
// engine's own cursor; the corrections are netted into a per-row count map
// and merged against that stream: rows with negative net are dropped as
// they pass, rows with positive net are appended. The merged multiset is
// exactly Q over a store rebuilt from the patched triple set; DISTINCT is
// applied after the merge (corrections need true multiplicities, so the
// base cursor is opened without DISTINCT), then Offset/MaxRows, matching
// the engine contract's ordering.

// src tags which triple set a pattern scans in one correction term.
type src uint8

const (
	srcBase     src = iota // B: the full base table
	srcBaseLive            // B1 = B \ D
	srcOverlay             // B2 = (B \ D) ∪ I
	srcIns                 // I
	srcDel                 // D
)

// corr is one projected row's net correction.
type corr struct {
	row []uint32
	n   int
}

// evaluator computes correction terms over one pinned state.
type evaluator struct {
	s    *state
	tick *engine.Ticker
}

// openOverlay returns the merged overlay cursor for q over the pinned state
// s, streaming the base term from inner. basePlan, when non-nil, is a plan
// for q compiled against s's base through the inner engine (only usable
// when q has no DISTINCT — the base stream must keep multiplicities).
func openOverlay(s *state, inner engine.Engine, q *query.BGP, basePlan *plan.Plan, opts engine.ExecOpts) engine.Cursor {
	cur := &overlayCursor{s: s, inner: inner, q: q, basePlan: basePlan, opts: opts}
	if q.Distinct {
		cur.seen = &engine.RowSet{}
	}
	return engine.Limit(cur, opts.Offset, opts.MaxRows)
}

// overlayCursor forwards the base stream's blocks, dropping tombstoned
// occurrences (and DISTINCT duplicates) in place, then appends the rows
// whose net correction is positive. The corrections are computed, and the
// base cursor opened, on the first pull, so their errors surface from the
// stream like any execution error.
type overlayCursor struct {
	s        *state
	inner    engine.Engine
	q        *query.BGP
	basePlan *plan.Plan
	opts     engine.ExecOpts

	net    map[string]*corr   // pending corrections, keyed by projected row
	key    []byte             // probe scratch for net
	base   engine.BlockCursor // nil before the first pull and after base EOF
	extra  [][]uint32         // rows to append after the base, with multiplicity
	seen   *engine.RowSet     // DISTINCT, applied after the merge
	opened bool
	err    error
}

func (c *overlayCursor) Vars() []string { return c.q.Select }

func (c *overlayCursor) NextBlock(b *engine.Block) error {
	for c.err == nil {
		switch {
		case !c.opened:
			c.opened = true
			c.err = c.open()
			continue
		case c.base != nil:
			err := c.base.NextBlock(b)
			if err == io.EOF {
				c.err = c.endBase()
				continue
			}
			if err != nil {
				c.err = err
				continue
			}
			if len(c.net) > 0 {
				b.Filter(c.survives)
			}
		default:
			if c.err = c.nextExtra(b); c.err != nil {
				continue
			}
		}
		if c.seen != nil {
			b.Filter(c.seen.Add)
		}
		if b.Len() > 0 {
			return nil
		}
	}
	b.Reset()
	return c.err
}

// open computes the corrections and starts the base stream.
func (c *overlayCursor) open() error {
	ev := &evaluator{s: c.s, tick: engine.NewTicker(c.opts.Ctx)}
	net, err := ev.corrections(c.q)
	if err != nil {
		return err
	}
	c.net = net
	c.base, err = openBase(c.s, c.inner, c.q, c.basePlan, engine.ExecOpts{Ctx: c.opts.Ctx, Workers: c.opts.Workers})
	return err
}

// survives reports whether one base occurrence of row outlives the
// tombstones, consuming one pending deletion when it does not. The probe
// key is built in place, so a row no correction touches allocates nothing.
func (c *overlayCursor) survives(row []uint32) bool {
	c.key = engine.AppendRowKey(c.key[:0], row)
	if cr := c.net[string(c.key)]; cr != nil && cr.n < 0 {
		cr.n++
		return false
	}
	return true
}

// endBase closes the exhausted base stream and lines up the rows with a
// positive net correction.
func (c *overlayCursor) endBase() error {
	c.base.Close()
	c.base = nil
	for _, cr := range c.net {
		if cr.n < 0 {
			// Mathematically impossible when base ≡ corrections; if it
			// happens the wrapped engine produced a wrong multiset.
			return fmt.Errorf("live: overlay correction underflow (%d unmatched deletions for one row) — wrapped engine produced an inconsistent base multiset", -cr.n)
		}
		for i := 0; i < cr.n; i++ {
			c.extra = append(c.extra, cr.row)
		}
	}
	return nil
}

// nextExtra fills b with the next appended rows.
func (c *overlayCursor) nextExtra(b *engine.Block) error {
	return engine.FillBlock(b, func() ([]uint32, error) {
		if len(c.extra) == 0 {
			return nil, io.EOF
		}
		row := c.extra[0]
		c.extra = c.extra[1:]
		return row, nil
	})
}

// Truncated is always false: caps are applied by the Limit wrapper.
func (c *overlayCursor) Truncated() bool { return false }

func (c *overlayCursor) Close() error {
	if c.base != nil {
		c.base.Close()
		c.base = nil
	}
	if c.err == nil {
		c.err = io.EOF
	}
	return nil
}

// openBase starts the Q(B) stream: through the compiled plan when one is
// usable, else through the inner engine's own Open. DISTINCT is stripped —
// the merge needs the base multiset — and caps/offsets stay at the merge
// layer.
func openBase(s *state, inner engine.Engine, q *query.BGP, basePlan *plan.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	if q.Distinct {
		return inner.Open(s.base.bareClone(q), opts)
	}
	if basePlan != nil {
		if po, ok := inner.(planOpener); ok {
			return po.OpenPlan(basePlan, opts)
		}
	}
	return inner.Open(q, opts)
}

// bareCloneCap bounds the interned DISTINCT-stripped clones per base: the
// server's plan-cache churn mints fresh normalized BGP pointers, and an
// epoch can live a long time between compactions, so the intern map must
// not grow without bound. Past the cap clones are returned uncached (the
// inner engine replans that execution — correct, just slower).
const bareCloneCap = 1024

// bareClone returns q with DISTINCT stripped, interned per base so the
// inner engine's per-pointer plan cache still hits across requests.
func (b *baseRef) bareClone(q *query.BGP) *query.BGP {
	b.engMu.Lock()
	defer b.engMu.Unlock()
	if c, ok := b.noDistinct[q]; ok {
		return c
	}
	c := *q
	c.Distinct = false
	if b.noDistinct == nil {
		b.noDistinct = map[*query.BGP]*query.BGP{}
	}
	if len(b.noDistinct) < bareCloneCap {
		b.noDistinct[q] = &c
	}
	return &c
}

// corrections nets every correction term for q into a per-row map keyed by
// the projected row.
func (ev *evaluator) corrections(q *query.BGP) (map[string]*corr, error) {
	net := map[string]*corr{}
	var key []byte
	d := ev.s.delta
	k := len(q.Patterns)
	accumulate := func(sign int) func(row []uint32) error {
		return func(row []uint32) error {
			key = engine.AppendRowKey(key[:0], row)
			c := net[string(key)]
			if c == nil {
				c = &corr{row: row}
				net[string(key)] = c
			}
			c.n += sign
			return nil
		}
	}
	if len(d.del) > 0 {
		for i := 0; i < k; i++ {
			srcs := make([]src, k)
			for j := range srcs {
				switch {
				case j < i:
					srcs[j] = srcBaseLive
				case j == i:
					srcs[j] = srcDel
				default:
					srcs[j] = srcBase
				}
			}
			if err := ev.enumerate(q, srcs, accumulate(-1)); err != nil {
				return nil, err
			}
		}
	}
	if len(d.ins) > 0 {
		for i := 0; i < k; i++ {
			srcs := make([]src, k)
			for j := range srcs {
				switch {
				case j < i:
					srcs[j] = srcBaseLive
				case j == i:
					srcs[j] = srcIns
				default:
					srcs[j] = srcOverlay
				}
			}
			if err := ev.enumerate(q, srcs, accumulate(+1)); err != nil {
				return nil, err
			}
		}
	}
	return net, nil
}

// patSrc is one pattern with its term's source assignment.
type patSrc struct {
	pat query.Pattern
	src src
}

// enumerate backtracks over one correction term, yielding every projected
// solution row (with multiplicity).
func (ev *evaluator) enumerate(q *query.BGP, srcs []src, yield func(row []uint32) error) error {
	ps := make([]patSrc, len(q.Patterns))
	for i, p := range q.Patterns {
		ps[i] = patSrc{pat: p, src: srcs[i]}
	}
	b := map[string]uint32{}
	return ev.solve(ps, b, func() error {
		row := make([]uint32, len(q.Select))
		for i, v := range q.Select {
			row[i] = b[v]
		}
		return yield(row)
	})
}

// candList is one candidate slice; skipDel filters tombstoned triples out
// (the B1/B2 views of the base table).
type candList struct {
	ts      []store.Triple
	skipDel bool
}

// resolved is a pattern's three positions resolved under current bindings:
// per position the fixed value (when bound) and, overall, whether a
// constant term failed dictionary lookup (no match possible).
type resolved struct {
	v     [3]uint32
	bound [3]bool
	ok    bool
}

func (ev *evaluator) resolve(p query.Pattern, b map[string]uint32) resolved {
	var r resolved
	r.ok = true
	for i, n := range [3]query.Node{p.S, p.P, p.O} {
		if n.IsVar {
			if v, bound := b[n.Var]; bound {
				r.v[i], r.bound[i] = v, true
			}
			continue
		}
		id, ok := ev.s.base.st.Dict().Lookup(n.Term)
		if !ok {
			r.ok = false
			return r
		}
		r.v[i], r.bound[i] = id, true
	}
	return r
}

// candidates returns the candidate lists for one source-tagged pattern
// under the current bindings, plus their summed length (an upper bound used
// by the greedy pattern ordering). ok=false prunes the branch (a constant
// is absent from the data).
func (ev *evaluator) candidates(ps patSrc, b map[string]uint32) (lists []candList, size int, ok bool) {
	r := ev.resolve(ps.pat, b)
	if !r.ok {
		return nil, 0, false
	}
	d := ev.s.delta
	switch ps.src {
	case srcBase:
		lists = []candList{{ts: ev.s.base.index().pick(r.v, r.bound)}}
	case srcBaseLive:
		lists = []candList{{ts: ev.s.base.index().pick(r.v, r.bound), skipDel: true}}
	case srcOverlay:
		lists = []candList{
			{ts: ev.s.base.index().pick(r.v, r.bound), skipDel: true},
			{ts: d.insIdx.pick(r.v, r.bound)},
		}
	case srcIns:
		lists = []candList{{ts: d.insIdx.pick(r.v, r.bound)}}
	case srcDel:
		lists = []candList{{ts: d.delIdx.pick(r.v, r.bound)}}
	}
	for _, l := range lists {
		size += len(l.ts)
	}
	return lists, size, true
}

// solve expands the remaining patterns cheapest-first (the delta-pinned
// pattern's list is tiny, so it naturally goes first), binding variables
// with backtracking exactly like the naive oracle.
func (ev *evaluator) solve(remaining []patSrc, b map[string]uint32, leaf func() error) error {
	if len(remaining) == 0 {
		return leaf()
	}
	bestIdx := -1
	var bestLists []candList
	bestSize := 0
	for i, ps := range remaining {
		lists, size, ok := ev.candidates(ps, b)
		if !ok || size == 0 {
			return nil // no matches down this branch
		}
		if bestIdx < 0 || size < bestSize {
			bestIdx, bestLists, bestSize = i, lists, size
		}
	}
	ps := remaining[bestIdx]
	rest := make([]patSrc, 0, len(remaining)-1)
	rest = append(rest, remaining[:bestIdx]...)
	rest = append(rest, remaining[bestIdx+1:]...)
	r := ev.resolve(ps.pat, b)
	delSet := ev.s.delta.delSet
	for _, cl := range bestLists {
		for _, t := range cl.ts {
			if err := ev.tick.Check(); err != nil {
				return err
			}
			if cl.skipDel {
				if _, dead := delSet[t]; dead {
					continue
				}
			}
			if r.bound[0] && t.S != r.v[0] || r.bound[1] && t.P != r.v[1] || r.bound[2] && t.O != r.v[2] {
				continue
			}
			// Bind free variables, honouring repeated variables within the
			// pattern (?x p ?x).
			var undo []string
			ok := true
			for _, pos := range [3]struct {
				n query.Node
				v uint32
			}{{ps.pat.S, t.S}, {ps.pat.P, t.P}, {ps.pat.O, t.O}} {
				if !pos.n.IsVar {
					continue
				}
				if bound, exists := b[pos.n.Var]; exists {
					if bound != pos.v {
						ok = false
						break
					}
					continue
				}
				b[pos.n.Var] = pos.v
				undo = append(undo, pos.n.Var)
			}
			var err error
			if ok {
				err = ev.solve(rest, b, leaf)
			}
			for _, v := range undo {
				delete(b, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
