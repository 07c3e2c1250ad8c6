package engines

import (
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/logicblox"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/store"
)

// classEngine is what auto routes to: an engine that separates compilation
// from execution.
type classEngine interface {
	engine.Engine
	Plan(*query.BGP) (*plan.Plan, error)
	OpenPlan(*plan.Plan, engine.ExecOpts) (engine.Cursor, error)
}

// autoEngine routes every query to the engine class the cost model
// (internal/plan) prices cheapest: the fully optimized hybrid GHD plan for
// selective and cyclic queries, a flat worst-case optimal leapfrog for
// intersection-heavy big-output queries (where GHD materialization costs
// more than it saves), and uint-layout scan enumeration for join-free
// output-dominated queries (where bitset decode is pure overhead).
//
// It is a planner like its classes: Plan compiles for the chosen class and
// tags the plan with it, OpenPlan runs a plan on its class's engine, and a
// caller that caches plans (the query server) holds all compiled state.
// Open serves direct callers instead, memoizing routing decisions per
// parsed query. Every pick is recorded in the stats.Default ledger for
// /stats.
type autoEngine struct {
	st      *store.Store
	byClass [3]classEngine

	mu     sync.Mutex
	routes map[*query.BGP]plan.EngineClass
}

func newAuto(st *store.Store) *autoEngine {
	return &autoEngine{
		st: st,
		byClass: [3]classEngine{
			plan.ClassHybridGHD: core.New(st, core.AllOptimizations),
			plan.ClassPureWCOJ:  logicblox.New(st),
			// Every optimization except the layout chooser: enumeration
			// streams sorted uint arrays instead of decoding bitsets.
			plan.ClassScanEnumerate: core.New(st, core.Options{
				AttributeReorder: true,
				GHDPushdown:      true,
			}),
		},
		routes: map[*query.BGP]plan.EngineClass{},
	}
}

// Name implements engine.Engine.
func (e *autoEngine) Name() string { return "auto" }

// Plan profiles q, picks the cheapest class and compiles q with that
// class's engine.
func (e *autoEngine) Plan(q *query.BGP) (*plan.Plan, error) {
	prof, err := plan.ProfileQuery(q, e.st)
	if err != nil {
		return nil, err
	}
	cls, _ := prof.ChooseClass()
	return e.planClass(q, cls)
}

// planClass compiles q with the engine of class cls and tags the plan.
func (e *autoEngine) planClass(q *query.BGP, cls plan.EngineClass) (*plan.Plan, error) {
	p, err := e.byClass[cls].Plan(q)
	if err != nil {
		return nil, err
	}
	p.Class = cls
	return p, nil
}

// OpenPlan streams a plan compiled by Plan on the engine of its class.
func (e *autoEngine) OpenPlan(p *plan.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	pick(p.Class, opts)
	return e.byClass[p.Class].OpenPlan(p, opts)
}

// route resolves (and memoizes) the engine class for q.
func (e *autoEngine) route(q *query.BGP) (plan.EngineClass, error) {
	e.mu.Lock()
	cls, ok := e.routes[q]
	e.mu.Unlock()
	stats.Default.RecordCostLookup(ok)
	if !ok {
		prof, err := plan.ProfileQuery(q, e.st)
		if err != nil {
			return 0, err
		}
		cls, _ = prof.ChooseClass()
		e.mu.Lock()
		e.routes[q] = cls
		e.mu.Unlock()
	}
	return cls, nil
}

// Open implements engine.Engine by delegating to the routed engine.
func (e *autoEngine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	cls, err := e.route(q)
	if err != nil {
		return nil, err
	}
	pick(cls, opts)
	return e.byClass[cls].Open(q, opts)
}

// pick records one execution's engine class in the ledger and on the
// execute span.
func pick(cls plan.EngineClass, opts engine.ExecOpts) {
	stats.Default.RecordEnginePick(cls.String())
	obs.SpanFrom(opts.Ctx).SetAttr("engine_class", cls.String())
}

var _ classEngine = (*autoEngine)(nil)
