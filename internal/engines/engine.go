package engines

import (
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// Engine is a worst-case optimal engine bound to a store: a compile
// function and a memo of the plans it compiled. A compiled plan carries
// everything execution reads, its set layout policy included, so Plan
// compiles, OpenPlan is exec.Open and Open memoizes then opens; the
// emptyheaded and logicblox engines differ only in how they compile, and
// auto is emptyheaded under another name.
type Engine struct {
	name    string
	st      *store.Store
	compile compileFunc
	plans   plan.Memo
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

// NewAuto returns the fully optimized emptyheaded engine under the name
// "auto": one worst-case optimal engine with the classic optimizations of
// §III all on, which the paper finds competitive on every LUBM query
// without a router between engines.
func NewAuto(st *store.Store) *Engine {
	return &Engine{name: "auto", st: st, compile: emptyHeaded(plan.AllOptimizations)}
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
	return exec.Open(p, e.st, opts)
}

// Open implements engine.Engine: compile q (memoized per parsed query,
// mirroring the paper's exclusion of compilation time from its
// measurements) and stream the plan through a cursor.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	p, err := e.plans.Get(q, e.Plan)
	if err != nil {
		return nil, err
	}
	return e.OpenPlan(p, opts)
}
