// Package logicblox models the LogicBlox engine as characterized by the
// paper (§I, §IV): the first commercial engine with a worst-case optimal
// join algorithm — so it shares EmptyHeaded's asymptotics on cyclic queries
// — but "without fully optimized query plans or indexes". Concretely, this
// model runs the generic worst-case optimal join over the whole query as a
// single flat node (no GHD factorization), with the natural attribute order
// (selections are probed at their pattern positions rather than hoisted
// first) and unsigned-integer-array set layouts only. Those are exactly the
// deltas Table I/II attribute to LogicBlox versus EmptyHeaded. Its plans
// come from the same compiler as EmptyHeaded's: plan.CompileFlat is
// plan.Compile over a one-node decomposition.
package logicblox

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

// Engine is the LogicBlox-like baseline.
type Engine struct {
	st *store.Store

	mu    sync.Mutex
	plans map[*query.BGP]*plan.Plan
}

// New returns the engine over st.
func New(st *store.Store) *Engine {
	return &Engine{st: st, plans: map[*query.BGP]*plan.Plan{}}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "logicblox" }

// Open compiles the query to a single-node plan (flat generic join over
// every relation, attributes in order of first appearance) and streams it
// with uint-array layouts. Plans are cached per parsed query.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	e.mu.Lock()
	p, ok := e.plans[q]
	e.mu.Unlock()
	if !ok {
		var err error
		p, err = e.Plan(q)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.plans[q] = p
		e.mu.Unlock()
	}
	return e.OpenPlan(p, opts)
}

// OpenPlan streams a plan previously compiled with Plan (the query server's
// plan-cache path). The plan must have been compiled over this engine's
// store. The LogicBlox model has no parallel enumeration; opts.Workers is
// ignored.
func (e *Engine) OpenPlan(p *plan.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	return exec.Open(p, e.st, exec.Options{
		Policy:  set.PolicyUintOnly,
		Ctx:     opts.Ctx,
		MaxRows: opts.MaxRows,
		Offset:  opts.Offset,
	})
}

// Plan compiles q to the flat single-node plan (plan.CompileFlat).
func (e *Engine) Plan(q *query.BGP) (*plan.Plan, error) {
	return plan.CompileFlat(q, e.st)
}

var _ engine.Engine = (*Engine)(nil)
