// Package engines is the registry mapping engine names to constructors. It
// is the single place that knows how to build every benchmarked engine over
// a store, shared by the root repro package, cmd/rdfq, and the query
// server's per-request ?engine= selection.
//
// It also holds the cost-model router, auto (auto.go). Each of its three
// engine classes is a way to compile a query; the compiled plan records
// its class and its set layout policy, so auto runs every plan with
// exec.Open and holds no engine per class.
package engines

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/logicblox"
	"repro/internal/engine/monetdb"
	"repro/internal/engine/naive"
	"repro/internal/engine/rdf3x"
	"repro/internal/engine/triplebit"
	"repro/internal/live"
	"repro/internal/shard"
	"repro/internal/store"
)

// Names lists the selectable engine names: the paper's Table II engines in
// column order, plus the cost-model router and the naive reference engine.
func Names() []string {
	return []string{"emptyheaded", "triplebit", "rdf3x", "monetdb", "logicblox", "auto", "naive"}
}

// New builds the named engine over st. Engine construction may build
// indexes eagerly (rdf3x sorts six triple permutations, triplebit builds
// its matrices), so callers that serve many queries should construct each
// engine once and reuse it.
func New(name string, st *store.Store) (engine.Engine, error) {
	switch name {
	case "emptyheaded":
		return core.New(st, core.AllOptimizations), nil
	case "auto":
		return newAuto(st), nil
	case "logicblox":
		return logicblox.New(st), nil
	case "monetdb":
		return monetdb.New(st), nil
	case "rdf3x":
		return rdf3x.New(st), nil
	case "triplebit":
		return triplebit.New(st), nil
	case "naive":
		return naive.New(st), nil
	default:
		return nil, fmt.Errorf("unknown engine %q (available: %s)", name, strings.Join(Names(), ", "))
	}
}

// NewSharded builds one instance of the named engine over every shard of p
// and returns the scatter-gather wrapper, which satisfies the same
// engine.Engine contract. Engine construction runs once per shard, so the
// same reuse advice as New applies, per shard set. Queries the cost model
// declines to scatter run on one more instance, built over p's parent
// store when the first of them arrives.
func NewSharded(name string, p *shard.Partitioned) (engine.Engine, error) {
	return shard.NewEngine(p, name, func(st *store.Store) (engine.Engine, error) {
		return New(name, st)
	})
}

// NewLive wraps the named engine over a live (read-write) store: queries
// run against the delta overlay, and each epoch's inner engine — sharded
// when the live store is partitioned — is built lazily and cached until the
// next compaction swaps the base.
func NewLive(name string, ls *live.Store) (*live.Engine, error) {
	if !slices.Contains(Names(), name) {
		return nil, fmt.Errorf("unknown engine %q (available: %s)", name, strings.Join(Names(), ", "))
	}
	return live.NewEngine(ls, name, func(st *store.Store, p *shard.Partitioned) (engine.Engine, error) {
		if p != nil {
			return NewSharded(name, p)
		}
		return New(name, st)
	}), nil
}

// NewClusterLive is NewLive for a cluster coordinator: each epoch's
// scatter-gather engine is built as in NewLive (the store must be
// partitioned), then pointed at remote, so every per-shard sub-query is
// served by the worker fleet instead of the local shard engines. The local
// partition still provides the scatter planner's statistics (pruning,
// probe choice) — only the drains go remote.
func NewClusterLive(name string, ls *live.Store, remote shard.RemoteOpener) (*live.Engine, error) {
	if !slices.Contains(Names(), name) {
		return nil, fmt.Errorf("unknown engine %q (available: %s)", name, strings.Join(Names(), ", "))
	}
	return live.NewEngine(ls, name, func(st *store.Store, p *shard.Partitioned) (engine.Engine, error) {
		if p == nil {
			return nil, fmt.Errorf("cluster serving requires a partitioned store (Shards > 1)")
		}
		eng, err := NewSharded(name, p)
		if err != nil {
			return nil, err
		}
		eng.(*shard.Engine).SetRemote(remote)
		return eng, nil
	}), nil
}
