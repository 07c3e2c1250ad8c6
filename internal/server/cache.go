package server

import (
	"container/list"
	"sync"
)

// CacheStats is a point-in-time snapshot of the plan cache's counters,
// reported by the /stats endpoint.
type CacheStats struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// TemplateHits and TemplateMisses count template lookups, which happen
	// only on text misses; Hits and Misses count text lookups alone.
	TemplateHits   uint64 `json:"template_hits"`
	TemplateMisses uint64 `json:"template_misses"`
}

// evictScan bounds how many least-recently-used entries the eviction pass
// scores. Recency prefilters the candidates; cost×frequency picks the
// victim among them, so one ancient-but-expensive plan survives bursts of
// cheap one-off queries without the scan ever being O(cache).
const evictScan = 16

// planCache is a concurrency-safe cache from normalized query keys to
// prepared queries; plan templates (see Server.prepare) share it under
// their own key prefix, capacity and eviction included, with their own
// hit/miss counters, and a hit on a text entry also refreshes the template
// its plan came from. Lookup order is LRU, but eviction is not pure recency:
// among the evictScan least-recently-used entries, the victim is the one
// with the lowest estimated-cost × use-count score — dropping a plan that
// was expensive to compile-and-run and is hit often costs the most to
// re-establish, so recency alone (which a scan of cheap ad-hoc queries can
// flush) is the wrong signal. Concurrent misses for the same key may both
// compile and race to add; the second add wins and the first compilation is
// discarded — harmless (plans are immutable) and simpler than per-key
// singleflight.
type planCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64

	templateHits   uint64
	templateMisses uint64
}

type cacheEntry struct {
	key  string
	pq   *preparedQuery
	uses uint64
}

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the cached prepared query for key, marking it most recently
// used, and records a hit or miss.
func (c *planCache) get(key string) (*preparedQuery, bool) {
	return c.lookup(key, &c.hits, &c.misses)
}

// getTemplate is get for a template key, counted as a template lookup.
func (c *planCache) getTemplate(key string) (*preparedQuery, bool) {
	return c.lookup(key, &c.templateHits, &c.templateMisses)
}

// lookup is get with the counters to record into; they are fields of c,
// guarded by c.mu.
func (c *planCache) lookup(key string, hits, misses *uint64) (*preparedQuery, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		*misses++
		return nil, false
	}
	*hits++
	ent := el.Value.(*cacheEntry)
	ent.uses++
	c.ll.MoveToFront(el)
	// A template is used whenever a plan of its shape is: refresh it with
	// every hit on a text bound from it, or it ages out while its texts
	// stay hot and is recompiled when one of them is next evicted.
	if t, ok := c.items[ent.pq.template]; ok {
		t.Value.(*cacheEntry).uses++
		c.ll.MoveToFront(t)
	}
	return ent.pq, true
}

// add inserts (or refreshes) key, evicting the lowest cost×frequency entry
// among the least recently used when over capacity.
func (c *planCache) add(key string, pq *preparedQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).pq = pq
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, pq: pq})
	for c.ll.Len() > c.capacity {
		victim := c.ll.Back()
		best := score(victim.Value.(*cacheEntry))
		for el, i := victim.Prev(), 1; el != nil && i < evictScan; el, i = el.Prev(), i+1 {
			if s := score(el.Value.(*cacheEntry)); s < best {
				victim, best = el, s
			}
		}
		c.ll.Remove(victim)
		delete(c.items, victim.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// score is the keep-priority of an entry: estimated execution cost times
// observed hit frequency, with +1 floors so zero-cost entries (engines the
// cost model cannot price) and never-hit entries still rank by the other
// factor.
func score(e *cacheEntry) float64 {
	return (e.pq.cost + 1) * float64(e.uses+1)
}

// stats snapshots the counters.
func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Size:      c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,

		TemplateHits:   c.templateHits,
		TemplateMisses: c.templateMisses,
	}
}
