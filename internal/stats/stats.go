// Package stats holds the measured quantities that drive the system's
// representation and algorithm choices — the paper's thesis (Aberger et al.,
// ICDE 2016) is that these choices, made from simple statistics, dominate
// RDF join performance, so the statistics themselves are a first-class
// artifact: computed once at trie build time, persisted alongside the trie
// in segment files, and consulted by the layout chooser (internal/trie), the
// cost model (internal/plan), and the engine router (internal/engines).
//
// The package has two halves. Level is the per-trie-level histogram
// (cardinality distribution, density, skew) that the layout and cost
// decisions read. Chooser is the process-wide decision ledger — how often
// the adaptive layout disagreed with the paper's static 1-in-256 rule,
// which engines the auto router picked, and how often the cost model's
// cached decisions were reused — surfaced by the server's /stats endpoint.
package stats

import (
	"sync"
	"sync/atomic"
)

// Level summarizes every set at one trie level. All counts are over the
// nodes (sets) of the level, not tuples.
type Level struct {
	Nodes       uint64 // number of sets at this level
	TotalCard   uint64 // sum of set cardinalities
	MinCard     uint64 // smallest set cardinality (0 iff Nodes == 0)
	MaxCard     uint64 // largest set cardinality
	SpanSum     uint64 // sum of (max-min+1) value spans — the density denominator
	BitsetNodes uint64 // sets laid out as bitsets
	UintNodes   uint64 // sets laid out as sorted uint arrays
	Flips       uint64 // sets where the measured choice differs from the 1-in-256 rule
}

// Observe folds one set into the histogram.
func (l *Level) Observe(card, span uint64, bitset, flip bool) {
	if l.Nodes == 0 || card < l.MinCard {
		l.MinCard = card
	}
	if card > l.MaxCard {
		l.MaxCard = card
	}
	l.Nodes++
	l.TotalCard += card
	l.SpanSum += span
	if bitset {
		l.BitsetNodes++
	} else {
		l.UintNodes++
	}
	if flip {
		l.Flips++
	}
}

// Density is the level's aggregate fill factor: members per spanned value.
// 1.0 means every set is a contiguous run; the bitset layout wins well below
// that (the measured crossover is near 1/128).
func (l *Level) Density() float64 {
	if l.SpanSum == 0 {
		return 0
	}
	return float64(l.TotalCard) / float64(l.SpanSum)
}

// AvgCard is the mean set cardinality at this level.
func (l *Level) AvgCard() float64 {
	if l.Nodes == 0 {
		return 0
	}
	return float64(l.TotalCard) / float64(l.Nodes)
}

// Skew is MaxCard over AvgCard — 1.0 for perfectly uniform levels, large
// when a few hub nodes dominate. The cost model reads this to distrust
// average-based size estimates on skewed levels.
func (l *Level) Skew() float64 {
	avg := l.AvgCard()
	if avg == 0 {
		return 0
	}
	return float64(l.MaxCard) / avg
}

// Merge folds other into l (per-level aggregation across tries).
func (l *Level) Merge(other Level) {
	if other.Nodes == 0 {
		return
	}
	if l.Nodes == 0 || other.MinCard < l.MinCard {
		l.MinCard = other.MinCard
	}
	if other.MaxCard > l.MaxCard {
		l.MaxCard = other.MaxCard
	}
	l.Nodes += other.Nodes
	l.TotalCard += other.TotalCard
	l.SpanSum += other.SpanSum
	l.BitsetNodes += other.BitsetNodes
	l.UintNodes += other.UintNodes
	l.Flips += other.Flips
}

// Chooser is the process-wide ledger of representation and algorithm
// decisions. All methods are safe for concurrent use; trie builds, the plan
// compiler, and the serving layer all write to the Default instance.
type Chooser struct {
	layoutBitset atomic.Uint64
	layoutUint   atomic.Uint64
	layoutFlips  atomic.Uint64
	costLookups  atomic.Uint64
	costHits     atomic.Uint64

	mu    sync.Mutex
	picks map[string]uint64
}

// Default is the ledger the serving layer reports from.
var Default = &Chooser{}

// RecordLayout adds one adaptive trie build's layout tallies.
func (c *Chooser) RecordLayout(bitset, uints, flips uint64) {
	c.layoutBitset.Add(bitset)
	c.layoutUint.Add(uints)
	c.layoutFlips.Add(flips)
}

// RecordEnginePick notes that the auto router ran a query on the named
// engine class.
func (c *Chooser) RecordEnginePick(engine string) {
	c.mu.Lock()
	if c.picks == nil {
		c.picks = make(map[string]uint64)
	}
	c.picks[engine]++
	c.mu.Unlock()
}

// RecordCostLookup notes one consultation of the auto router's memo of
// routed plans, which only its direct Open path uses: a served plan
// carries its class.
func (c *Chooser) RecordCostLookup(hit bool) {
	c.costLookups.Add(1)
	if hit {
		c.costHits.Add(1)
	}
}

// ChooserSnapshot is a point-in-time copy of the ledger, shaped for the
// server's /stats JSON.
type ChooserSnapshot struct {
	LayoutBitsetNodes uint64            `json:"layout_bitset_nodes"`
	LayoutUintNodes   uint64            `json:"layout_uint_nodes"`
	LayoutFlips       uint64            `json:"layout_flips"`
	EnginePicks       map[string]uint64 `json:"engine_picks"`
	CostLookups       uint64            `json:"cost_lookups"`
	CostHits          uint64            `json:"cost_hits"`
	CostHitRate       float64           `json:"cost_model_hit_rate"`
}

// Snapshot copies the ledger.
func (c *Chooser) Snapshot() ChooserSnapshot {
	s := ChooserSnapshot{
		LayoutBitsetNodes: c.layoutBitset.Load(),
		LayoutUintNodes:   c.layoutUint.Load(),
		LayoutFlips:       c.layoutFlips.Load(),
		CostLookups:       c.costLookups.Load(),
		CostHits:          c.costHits.Load(),
		EnginePicks:       map[string]uint64{},
	}
	c.mu.Lock()
	for k, v := range c.picks {
		s.EnginePicks[k] = v
	}
	c.mu.Unlock()
	if s.CostLookups > 0 {
		s.CostHitRate = float64(s.CostHits) / float64(s.CostLookups)
	}
	return s
}
