package engines

import (
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/stats"
	"repro/internal/store"
)

// autoEngine routes every query to the engine class the cost model
// (internal/plan) prices cheapest: the fully optimized hybrid GHD plan for
// selective and cyclic queries, a flat worst-case optimal leapfrog for
// intersection-heavy big-output queries (where GHD materialization costs
// more than it saves), and uint-layout scan enumeration for join-free
// output-dominated queries (where bitset decode is pure overhead).
//
// A class is a way to compile (compileClass); the plan it yields records
// its layout and its class, so OpenPlan is exec.Open for every class, and
// a caller that caches plans (the query server) holds all compiled state.
// Open serves direct callers instead, memoizing plans per parsed query.
// Every pick is recorded in the stats.Default ledger for /stats.
type autoEngine struct {
	st    *store.Store
	plans plan.Memo
}

func newAuto(st *store.Store) *autoEngine {
	return &autoEngine{st: st}
}

// Name implements engine.Engine.
func (e *autoEngine) Name() string { return "auto" }

// Plan profiles q, picks the cheapest class and compiles q for it.
func (e *autoEngine) Plan(q *query.BGP) (*plan.Plan, error) {
	prof, err := plan.ProfileQuery(q, e.st)
	if err != nil {
		return nil, err
	}
	cls, _ := prof.ChooseClass()
	return compileClass(q, e.st, cls)
}

// compileClass compiles q as class cls runs it and tags the plan: hybrid-ghd
// is core.AllOptimizations, pure-wcoj the logicblox engine's flat plan, and
// scan-enumerate every optimization except the layout chooser, so that
// enumeration streams sorted uint arrays instead of decoding bitsets.
func compileClass(q *query.BGP, st *store.Store, cls plan.EngineClass) (*plan.Plan, error) {
	var p *plan.Plan
	var err error
	switch cls {
	case plan.ClassPureWCOJ:
		p, err = plan.CompileFlat(q, st)
	case plan.ClassScanEnumerate:
		opts := plan.AllOptimizations
		opts.Layout = set.PolicyUintOnly
		p, err = plan.Compile(q, st, opts)
	default:
		p, err = plan.Compile(q, st, plan.AllOptimizations)
	}
	if err != nil {
		return nil, err
	}
	p.Class = cls
	return p, nil
}

// OpenPlan streams a plan compiled by Plan. A pure-wcoj plan enumerates
// sequentially, as the logicblox engine does.
func (e *autoEngine) OpenPlan(p *plan.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	stats.Default.RecordEnginePick(p.Class.String())
	obs.SpanFrom(opts.Ctx).SetAttr("engine_class", p.Class.String())
	if p.Class == plan.ClassPureWCOJ {
		opts.Workers = 0
	}
	return exec.Open(p, e.st, opts)
}

// Open implements engine.Engine over the memoized plan of q.
func (e *autoEngine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	p, hit, err := e.plans.Get(q, e.Plan)
	stats.Default.RecordCostLookup(hit)
	if err != nil {
		return nil, err
	}
	return e.OpenPlan(p, opts)
}
