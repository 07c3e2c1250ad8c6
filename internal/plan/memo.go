package plan

import (
	"sync"

	"repro/internal/query"
)

// memoCap bounds a Memo. It equals the shard engine's scatter-plan cap:
// that cache hands its per-shard engines the same sub-query pointers on
// every hit, so while a query's scatter plan is cached its per-shard plans
// stay memoized too.
const memoCap = 1 << 12

// Memo caches compiled plans per parsed query, for engines whose direct
// callers open one parsed query repeatedly (the paper excludes compilation
// from its measurements). It holds at most memoCap plans: when full, one
// arbitrary entry is evicted (map iteration order), so pointers no caller
// will present again — the sub-queries of a sharded server whose plan
// cache dropped their texts — cannot grow it without bound. The zero value
// is ready to use.
type Memo struct {
	mu sync.Mutex
	m  map[*query.BGP]*Plan
}

// Get returns q's plan, compiling it with compile on a miss; hit reports
// whether it was memoized.
func (m *Memo) Get(q *query.BGP, compile func(*query.BGP) (*Plan, error)) (p *Plan, hit bool, err error) {
	m.mu.Lock()
	p, hit = m.m[q]
	m.mu.Unlock()
	if hit {
		return p, true, nil
	}
	if p, err = compile(q); err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	if m.m == nil {
		m.m = map[*query.BGP]*Plan{}
	}
	if len(m.m) >= memoCap {
		for k := range m.m {
			delete(m.m, k)
			break
		}
	}
	m.m[q] = p
	m.mu.Unlock()
	return p, false, nil
}
