// Package core implements the EmptyHeaded-style engine that is the paper's
// primary subject: trie storage over dictionary-encoded vertically
// partitioned relations, the generic worst-case optimal join, GHD query
// plans, and the classic optimizations of §III (index layouts, and
// selection pushdown within and across GHD nodes), each independently
// toggleable so the Table I ablations can be reproduced. §III-C's
// pipelining is not among them: package plan says why.
package core

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

// Options toggles the paper's optimizations (Table I columns).
type Options struct {
	// Layout enables the set layout optimizer (§III-A): bitsets for dense
	// sets, uint arrays otherwise. Disabled, every set is a uint array.
	Layout bool
	// AttributeReorder pushes selections down within GHD nodes (§III-B1).
	AttributeReorder bool
	// GHDPushdown pushes selections down across GHD nodes (§III-B2).
	GHDPushdown bool
	// Workers parallelizes the final enumeration over goroutines (the
	// paper's testbed ran 48 cores). Values <= 1 keep execution
	// sequential, which is the deterministic default used in benchmarks.
	Workers int
}

// AllOptimizations is the fully optimized configuration benchmarked as
// "EmptyHeaded" in Table II.
var AllOptimizations = Options{
	Layout:           true,
	AttributeReorder: true,
	GHDPushdown:      true,
}

// NoOptimizations is the fully un-optimized worst-case optimal baseline.
var NoOptimizations = Options{}

// Engine is an EmptyHeaded-style worst-case optimal engine bound to a
// dataset.
type Engine struct {
	st   *store.Store
	opts Options
	name string

	mu    sync.Mutex
	plans map[*query.BGP]*plan.Plan
}

// New returns an engine over st with the given optimization configuration.
func New(st *store.Store, opts Options) *Engine {
	return &Engine{st: st, opts: opts, name: "emptyheaded", plans: map[*query.BGP]*plan.Plan{}}
}

// WithName overrides the engine's reported name (used when benchmarking
// several configurations side by side).
func (e *Engine) WithName(name string) *Engine {
	e.name = name
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Options returns the engine's optimization configuration.
func (e *Engine) Options() Options { return e.opts }

// Policy returns the set layout policy implied by the Layout toggle. With
// layout optimization on, the engine now uses the statistics-driven adaptive
// rule (measured 1-in-128 crossover with a minimum-cardinality floor) rather
// than the paper's static 1-in-256 rule; the -layout ablation still degrades
// to uint-only.
func (e *Engine) Policy() set.Policy {
	if e.opts.Layout {
		return set.PolicyAdaptive
	}
	return set.PolicyUintOnly
}

// Plan compiles a query without executing it (used by the ghdviz tool and
// the planner tests).
func (e *Engine) Plan(q *query.BGP) (*plan.Plan, error) {
	return plan.Compile(q, e.st, plan.Options{
		Layout:           e.Policy(),
		AttributeReorder: e.opts.AttributeReorder,
		GHDPushdown:      e.opts.GHDPushdown,
	})
}

// Open implements engine.Engine: compile to a GHD plan (cached per parsed
// query, mirroring the paper's exclusion of EmptyHeaded's compilation time
// from measurements) and stream the bottom-up worst-case optimal pass plus
// the final enumeration through a cursor.
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

// OpenPlan streams a plan previously compiled with Plan (or pulled from an
// external plan cache, as the query server does). The plan must have been
// compiled over this engine's store with its options. opts.Workers > 0
// overrides the engine's configured parallelism for this execution.
func (e *Engine) OpenPlan(p *plan.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	workers := e.opts.Workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	return exec.Open(p, e.st, exec.Options{
		Policy:  e.Policy(),
		Workers: workers,
		Ctx:     opts.Ctx,
		MaxRows: opts.MaxRows,
		Offset:  opts.Offset,
	})
}

var _ engine.Engine = (*Engine)(nil)
