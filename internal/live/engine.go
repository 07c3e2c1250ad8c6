package live

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
)

// BuildFunc constructs the wrapped engine over one epoch's base: from the
// shard partition when the live store is sharded (part non-nil), from the
// plain store otherwise. The registry supplies this (engines.NewLive);
// direct users can pass e.g.
// func(st, _) { return engines.NewEmptyHeaded(st, opts), nil }.
type BuildFunc func(st *store.Store, part *shard.Partitioned) (engine.Engine, error)

// planOpener matches engines that separate compilation from execution
// (internal/engines' Engine: emptyheaded, logicblox and auto) —
// structurally, so live does not import the registry that imports it.
type planOpener interface {
	Plan(*query.BGP) (*plan.Plan, error)
	OpenPlan(p *plan.Plan, opts engine.ExecOpts) (engine.Cursor, error)
}

// Engine adapts any wrapped engine to the read-write overlay: it satisfies
// the engine.Engine cursor contract over overlay = (base \ tombstones) ∪
// inserts. While the delta is empty every Open passes straight through to
// the wrapped engine (same cursor, same parallelism, caps pushed down);
// with a pending delta, the base cursor is merged with delta corrections
// (see overlay.go). Each cursor pins the epoch state it opened against, so
// compactions never disturb in-flight queries.
type Engine struct {
	ls    *Store
	name  string
	build BuildFunc
}

// NewEngine wraps the named engine (constructed per epoch by build) over
// ls. The wrapped engine is built lazily per epoch and cached, so repeated
// opens within an epoch reuse its indexes.
func NewEngine(ls *Store, name string, build BuildFunc) *Engine {
	return &Engine{ls: ls, name: name, build: build}
}

// Name implements engine.Engine; it reports the wrapped engine's name so
// benchmark and stats attribution stay stable.
func (e *Engine) Name() string { return e.name }

// Epoch returns the live store's current epoch — the cache-invalidation
// token for anything compiled against base statistics.
func (e *Engine) Epoch() uint64 { return e.ls.Epoch() }

// Store returns the live store this engine serves.
func (e *Engine) Store() *Store { return e.ls }

// Inner returns the wrapped engine instance for the current epoch, building
// it if needed. Callers may inspect it (e.g. for capability sniffing) but
// must route queries through Open so the overlay stays visible.
func (e *Engine) Inner() (engine.Engine, error) {
	s := e.ls.pin()
	defer s.unpin()
	return s.base.engine(e.name, e.build)
}

// Open implements engine.Engine over the overlay.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	return e.open(q, nil, 0, opts)
}

// PlanFor compiles q against the current epoch when the wrapped engine
// separates planning from execution; ok is false for engines that plan
// internally per execution. The returned epoch tags the plan: pass both to
// OpenPrepared, and key any cache by it — after a compaction the statistics
// the plan was costed against are gone.
func (e *Engine) PlanFor(q *query.BGP) (p *plan.Plan, epoch uint64, ok bool, err error) {
	s := e.ls.pin()
	defer s.unpin()
	inner, err := s.base.engine(e.name, e.build)
	if err != nil {
		return nil, 0, false, err
	}
	po, isPlanner := inner.(planOpener)
	if !isPlanner {
		return nil, s.epoch, false, nil
	}
	p, err = po.Plan(q)
	if err != nil {
		return nil, 0, false, err
	}
	return p, s.epoch, true, nil
}

// OpenPrepared opens q reusing a plan previously compiled by PlanFor at the
// given epoch. A plan from a different epoch is ignored (the query replans
// against the current base); a matching plan short-circuits compilation on
// the fast path and seeds the base stream on the overlay path.
func (e *Engine) OpenPrepared(q *query.BGP, p *plan.Plan, epoch uint64, opts engine.ExecOpts) (engine.Cursor, error) {
	return e.open(q, p, epoch, opts)
}

func (e *Engine) open(q *query.BGP, p *plan.Plan, planEpoch uint64, opts engine.ExecOpts) (engine.Cursor, error) {
	if err := opts.Err(); err != nil {
		return nil, err
	}
	s := e.ls.pin()
	inner, err := s.base.engine(e.name, e.build)
	if err != nil {
		s.unpin()
		return nil, err
	}
	if p != nil && planEpoch != s.epoch {
		p = nil // compiled against a base that was swapped out
	}
	if s.delta.empty() {
		var cur engine.Cursor
		if po, ok := inner.(planOpener); ok && p != nil {
			cur, err = po.OpenPlan(p, opts)
		} else {
			cur, err = inner.Open(q, opts)
		}
		if err != nil {
			s.unpin()
			return nil, err
		}
		return &pinnedCursor{Cursor: cur, s: s}, nil
	}
	if err := q.Validate(); err != nil {
		s.unpin()
		return nil, err
	}
	if sp := obs.SpanFrom(opts.Ctx); sp != nil {
		sp.SetAttr("overlay", true)
		sp.SetAttr("delta_size", s.delta.size())
	}
	return &pinnedCursor{Cursor: openOverlay(s, inner, q, p, opts), s: s}, nil
}

// pinnedCursor unpins its epoch state exactly once on Close, so compaction
// observability (StoreStats.PinnedReaders) tracks in-flight cursors.
type pinnedCursor struct {
	engine.Cursor
	s    *state
	once sync.Once
}

func (p *pinnedCursor) Close() error {
	err := p.Cursor.Close()
	p.once.Do(p.s.unpin)
	return err
}

var _ engine.Engine = (*Engine)(nil)
