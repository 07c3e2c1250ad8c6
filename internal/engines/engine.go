package engines

import (
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/store"
)

// Engine is a worst-case optimal engine bound to a store: a compile
// function and a memo of the plans it compiled. A compiled plan carries
// everything execution reads, its set layout policy included, so Plan
// compiles, OpenPlan is exec.Open and Open memoizes then opens; the
// emptyheaded, logicblox and auto engines differ only in how they compile.
type Engine struct {
	name    string
	st      *store.Store
	compile compileFunc
	// ledger receives auto's chooser records (nil for the static engines):
	// a class pick per execution, a memo lookup per direct Open.
	ledger *stats.Chooser
	plans  plan.Memo
}

// compileFunc compiles a query into a plan over a store.
type compileFunc func(*query.BGP, *store.Store) (*plan.Plan, error)

// NewEmptyHeaded returns the paper's EmptyHeaded-style engine over st: the
// generic worst-case optimal join over GHD plans (plan.Compile), with the
// classic optimizations of §III toggled by opts, so every Table I
// ablation is one configuration.
func NewEmptyHeaded(st *store.Store, opts plan.Options) *Engine {
	return &Engine{name: "emptyheaded", st: st, compile: emptyHeaded(opts)}
}

// emptyHeaded is the emptyheaded engine's compile function under opts.
func emptyHeaded(opts plan.Options) compileFunc {
	return func(q *query.BGP, st *store.Store) (*plan.Plan, error) { return plan.Compile(q, st, opts) }
}

// NewLogicBlox returns the model of the LogicBlox engine as the paper
// characterizes it (§I, §IV): the first commercial engine with a
// worst-case optimal join algorithm — so it shares EmptyHeaded's
// asymptotics on cyclic queries — but "without fully optimized query plans
// or indexes". Concretely, it runs the generic worst-case optimal join
// over the whole query as a single flat node (no GHD factorization), with
// the natural attribute order (selections are probed at their pattern
// positions rather than hoisted first) and unsigned-integer-array set
// layouts only. Those are exactly the deltas Table I/II attribute to
// LogicBlox versus EmptyHeaded. Its plans come from the same compiler as
// EmptyHeaded's: plan.CompileFlat is plan.Compile over a one-node
// decomposition, and keeps no automorphism group.
func NewLogicBlox(st *store.Store) *Engine {
	return &Engine{name: "logicblox", st: st, compile: plan.CompileFlat}
}

// NewAuto returns the cost-model router over st: it profiles every query
// and compiles it for the engine class the cost model (internal/plan)
// prices cheapest — the fully optimized hybrid GHD plan for selective and
// cyclic queries, a flat worst-case optimal leapfrog for
// intersection-heavy big-output queries (where GHD materialization costs
// more than it saves), and uint-layout scan enumeration for join-free
// output-dominated queries (where bitset decode is pure overhead). The
// plan records its class, and every pick is recorded in the stats.Default
// ledger for /stats.
func NewAuto(st *store.Store) *Engine {
	return &Engine{name: "auto", st: st, compile: route, ledger: stats.Default}
}

// route profiles q, picks the cheapest class and compiles q for it.
func route(q *query.BGP, st *store.Store) (*plan.Plan, error) {
	prof, err := plan.ProfileQuery(q, st)
	if err != nil {
		return nil, err
	}
	cls, _ := prof.ChooseClass()
	return compileClass(q, st, cls)
}

// classes compiles each engine class: hybrid-ghd is the fully optimized
// emptyheaded engine, pure-wcoj the logicblox engine, and scan-enumerate
// emptyheaded with the layout optimizer off, so that enumeration streams
// sorted uint arrays instead of decoding bitsets.
var classes = [...]compileFunc{
	plan.ClassHybridGHD:     emptyHeaded(plan.AllOptimizations),
	plan.ClassPureWCOJ:      plan.CompileFlat,
	plan.ClassScanEnumerate: emptyHeaded(plan.Options{AttributeReorder: true, GHDPushdown: true}),
}

// compileClass compiles q as class cls runs it and tags the plan.
func compileClass(q *query.BGP, st *store.Store, cls plan.EngineClass) (*plan.Plan, error) {
	p, err := classes[cls](q, st)
	if err != nil {
		return nil, err
	}
	p.Class = cls
	return p, nil
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Plan compiles q without executing it (the planner tests and the query
// server's plan cache use it).
func (e *Engine) Plan(q *query.BGP) (*plan.Plan, error) { return e.compile(q, e.st) }

// OpenPlan streams a plan compiled by Plan (or pulled from an external
// plan cache, as the query server does). The plan must have been compiled
// over this engine's store. opts.Workers > 1 parallelizes the final
// enumeration.
func (e *Engine) OpenPlan(p *plan.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	if e.ledger != nil {
		e.ledger.RecordEnginePick(p.Class.String())
		obs.SpanFrom(opts.Ctx).SetAttr("engine_class", p.Class.String())
	}
	return exec.Open(p, e.st, opts)
}

// Open implements engine.Engine: compile q (memoized per parsed query,
// mirroring the paper's exclusion of compilation time from its
// measurements) and stream the plan through a cursor.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	p, hit, err := e.plans.Get(q, e.Plan)
	if e.ledger != nil {
		e.ledger.RecordCostLookup(hit)
	}
	if err != nil {
		return nil, err
	}
	return e.OpenPlan(p, opts)
}
