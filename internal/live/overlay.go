package live

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
	"repro/internal/trie"
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
// its cost is delta-bounded. B, I and D are three stores over one
// dictionary, and their tries are the only index the terms read: scan
// descends the trie whose leading levels are a pattern's bound positions —
// a relation's (S,O) or (O,S) trie when the predicate is known, a
// full-table trie otherwise — and walks the levels below. B1 and B2 are not
// materialized: they are B's candidates minus those D holds, followed (for
// B2) by I's.
//
// The base term Q(B) streams from the wrapped engine's own cursor; the
// corrections are netted into a per-row count map and merged against that
// stream: rows with negative net are dropped as they pass, rows with
// positive net are appended. The merged multiset is exactly Q over a store
// rebuilt from the patched triple set; DISTINCT is applied after the merge
// (corrections need true multiplicities, so the base cursor is opened
// without DISTINCT), then Offset/MaxRows, matching the engine contract's
// ordering.

// corr is one projected row's net correction.
type corr struct {
	row []uint32
	n   int
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
	net, err := corrections(c.s, c.q, engine.NewTicker(c.opts.Ctx))
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

// part is one store a pattern ranges over in a correction term, less the
// triples minus holds (nil: none). B1 is {B less D}, B2 is {B less D, I}.
type part struct {
	st, minus *store.Store
}

// term is one pattern position: a variable's slot in the binding array, or
// (slot < 0) a constant's id.
type term struct {
	slot int
	id   uint32
}

// pat is one pattern of a correction term: its S, P, O positions and the
// triple set it ranges over.
type pat struct {
	pos  [3]term
	from []part
}

// evaluator enumerates correction terms over one pinned state. The query
// is compiled once: constants resolved against the dictionary, variables
// numbered into slots of val/bound.
type evaluator struct {
	tick  *engine.Ticker
	pats  []pat
	sel   []int // the slot of each projected variable
	val   []uint32
	bound []bool
}

// corrections nets every correction term for q over s into a per-row map
// keyed by the projected row.
func corrections(s *state, q *query.BGP, tick *engine.Ticker) (map[string]*corr, error) {
	net := map[string]*corr{}
	b, d := s.base.st, s.delta
	ev := &evaluator{tick: tick}
	slots := map[string]int{}
	slot := func(v string) int {
		if _, ok := slots[v]; !ok {
			slots[v] = len(slots)
		}
		return slots[v]
	}
	for _, p := range q.Patterns {
		var cp pat
		for i, n := range [3]query.Node{p.S, p.P, p.O} {
			if n.IsVar {
				cp.pos[i] = term{slot: slot(n.Var)}
				continue
			}
			id, ok := b.Dict().Lookup(n.Term)
			if !ok {
				// No triple, base or delta, holds a term the shared
				// dictionary lacks: nothing to correct.
				return net, nil
			}
			cp.pos[i] = term{slot: -1, id: id}
		}
		ev.pats = append(ev.pats, cp)
	}
	for _, v := range q.Select {
		ev.sel = append(ev.sel, slots[v])
	}
	ev.val, ev.bound = make([]uint32, len(slots)), make([]bool, len(slots))

	baseLive := []part{{st: b, minus: d.del}} // B1
	row := make([]uint32, len(ev.sel))
	var key []byte
	// terms enumerates Σ_i Q[p_j<i ← B1, p_i ← pinned, p_j>i ← after],
	// adding sign per solution to its projected row's net.
	terms := func(pinned, after []part, sign int) error {
		for i := range ev.pats {
			for j := range ev.pats {
				switch {
				case j < i:
					ev.pats[j].from = baseLive
				case j == i:
					ev.pats[j].from = pinned
				default:
					ev.pats[j].from = after
				}
			}
			err := ev.solve(ev.pats, func() error {
				for c, sl := range ev.sel {
					row[c] = ev.val[sl]
				}
				key = engine.AppendRowKey(key[:0], row)
				c := net[string(key)]
				if c == nil {
					c = &corr{row: slices.Clone(row)}
					net[string(key)] = c
				}
				c.n += sign
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := terms([]part{{st: d.del}}, []part{{st: b}}, -1); err != nil {
		return nil, err
	}
	if err := terms([]part{{st: d.ins}}, []part{baseLive[0], {st: d.ins}}, +1); err != nil {
		return nil, err
	}
	return net, nil
}

// resolve returns p's positions under the current bindings: per position the
// value and whether it is fixed.
func (ev *evaluator) resolve(p pat) (v [3]uint32, bound [3]bool) {
	for i, t := range p.pos {
		switch {
		case t.slot < 0:
			v[i], bound[i] = t.id, true
		case ev.bound[t.slot]:
			v[i], bound[i] = ev.val[t.slot], true
		}
	}
	return v, bound
}

// The trie orders scan reads, as the triple position (0=S, 1=P, 2=O) each
// level holds: subject-led ones serve patterns with nothing or the subject
// bound, object-led ones the object or both.
var (
	colsSO  = []int{0, 2}
	colsOS  = []int{2, 0}
	colsSPO = []int{0, 1, 2}
	colsOSP = []int{2, 0, 1}
)

// cands is what one pattern can match in one store under the current
// bindings: the trie node reached by descending with the bound positions,
// and the positions the levels from there down bind.
type cands struct {
	node trie.Node
	free []int // empty: the pattern is fully bound and its one triple is present
	size int   // candidates: exact one level above the leaves, a lower bound higher up
}

// scan finds a pattern's candidates in st; ok is false when there are none.
// With open false only size is asked for, and a pattern with neither subject
// nor object bound — which would walk its whole trie, so is expanded last if
// ever — reports the relation's row count without fetching (and so possibly
// building) that trie.
func scan(st *store.Store, v [3]uint32, bound [3]bool, open bool) (c cands, ok bool) {
	var rel *store.Relation
	total := st.NumTriples()
	if bound[1] {
		if rel = st.Relation(v[1]); rel == nil {
			return cands{}, false
		}
		total = rel.Len()
	}
	if total == 0 {
		return cands{}, false
	}
	if !open && !bound[0] && !bound[2] {
		return cands{size: total}, true
	}
	var t *trie.Trie
	var cols []int
	switch {
	case rel != nil && bound[2]:
		t, cols = rel.TrieOS(layout), colsOS
	case rel != nil:
		t, cols = rel.TrieSO(layout), colsSO
	case bound[2]:
		t, cols = st.TripleTrie([3]int(colsOSP), layout), colsOSP
	default:
		t, cols = st.TripleTrie([3]int(colsSPO), layout), colsSPO
	}
	n, depth := t.Root(), 0
	for depth < len(cols) && bound[cols[depth]] {
		if n, ok = n.ChildByValue(v[cols[depth]]); !ok {
			return cands{}, false
		}
		depth++
	}
	c = cands{node: n, free: cols[depth:], size: total}
	if depth == len(cols) {
		c.size = 1
	} else if depth > 0 {
		c.size = n.Set().Len()
	}
	return c, true
}

// walk completes t at the positions free names with every tuple below n,
// calling fn for each.
func walk(n trie.Node, free []int, t *[3]uint32, fn func() error) error {
	if len(free) == 0 {
		return fn()
	}
	var it set.Iter
	for it.Reset(n.Set()); !it.Done(); it.Next() {
		t[free[0]] = it.Cur()
		child := n
		if len(free) > 1 {
			child = n.Child(it.Pos())
		}
		if err := walk(child, free[1:], t, fn); err != nil {
			return err
		}
	}
	return nil
}

// solve expands the remaining patterns cheapest-first (the delta-pinned
// pattern's candidates are few, so it naturally goes first), binding
// variables with backtracking.
func (ev *evaluator) solve(remaining []pat, leaf func() error) error {
	if len(remaining) == 0 {
		return leaf()
	}
	best, bestSize := -1, 0
	for i, p := range remaining {
		v, bound := ev.resolve(p)
		size := 0
		for _, pt := range p.from {
			if c, ok := scan(pt.st, v, bound, false); ok {
				size += c.size
			}
		}
		if size == 0 {
			return nil // no matches down this branch
		}
		if best < 0 || size < bestSize {
			best, bestSize = i, size
		}
	}
	// Expand the cheapest pattern from slot 0 and recurse on the rest; the
	// swap is undone on the way out, so callers see their order unchanged.
	remaining[0], remaining[best] = remaining[best], remaining[0]
	err := ev.expand(remaining[0], remaining[1:], leaf)
	remaining[0], remaining[best] = remaining[best], remaining[0]
	return err
}

// expand binds p to each of its candidates in turn and solves the rest.
func (ev *evaluator) expand(p pat, rest []pat, leaf func() error) error {
	t, bound := ev.resolve(p)
	for _, pt := range p.from {
		c, ok := scan(pt.st, t, bound, true)
		if !ok {
			continue
		}
		err := walk(c.node, c.free, &t, func() error {
			if err := ev.tick.Check(); err != nil {
				return err
			}
			if pt.minus != nil && pt.minus.Has(store.Triple{S: t[0], P: t[1], O: t[2]}, layout) {
				return nil
			}
			// Bind the pattern's free variables; one repeated within the
			// pattern (?x p ?x) must meet the same value at both positions.
			var undo [3]int
			n, match := 0, true
			for i, tm := range p.pos {
				switch {
				case tm.slot < 0:
				case ev.bound[tm.slot]:
					match = match && ev.val[tm.slot] == t[i]
				default:
					ev.val[tm.slot], ev.bound[tm.slot] = t[i], true
					undo[n] = tm.slot
					n++
				}
			}
			var err error
			if match {
				err = ev.solve(rest, leaf)
			}
			for _, sl := range undo[:n] {
				ev.bound[sl] = false
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
