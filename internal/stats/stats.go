// Package stats holds the measured quantities that drive the system's
// set representation choices — the paper's thesis (Aberger et al.,
// ICDE 2016) is that these choices, made from simple statistics, dominate
// RDF join performance, so the statistics themselves are a first-class
// artifact: computed once at trie build time, persisted alongside the trie
// in segment files, and reported by the layout chooser (internal/trie).
//
// The package has two halves. Level is the per-trie-level histogram
// (cardinality range, value spans, layout tallies) of one trie level.
// Chooser is the process-wide layout ledger — how many sets the adaptive
// layout laid out each way and how often it disagreed with the paper's
// static 1-in-256 rule — surfaced by the server's /stats endpoint.
package stats

import "sync/atomic"

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

// Chooser is the process-wide ledger of set layout decisions. All methods
// are safe for concurrent use; adaptive trie builds write to the Default
// instance.
type Chooser struct {
	layoutBitset atomic.Uint64
	layoutUint   atomic.Uint64
	layoutFlips  atomic.Uint64
}

// Default is the ledger the serving layer reports from.
var Default = &Chooser{}

// RecordLayout adds one adaptive trie build's layout tallies.
func (c *Chooser) RecordLayout(bitset, uints, flips uint64) {
	c.layoutBitset.Add(bitset)
	c.layoutUint.Add(uints)
	c.layoutFlips.Add(flips)
}

// ChooserSnapshot is a point-in-time copy of the ledger, shaped for the
// server's /stats JSON.
type ChooserSnapshot struct {
	LayoutBitsetNodes uint64 `json:"layout_bitset_nodes"`
	LayoutUintNodes   uint64 `json:"layout_uint_nodes"`
	LayoutFlips       uint64 `json:"layout_flips"`
}

// Snapshot copies the ledger.
func (c *Chooser) Snapshot() ChooserSnapshot {
	return ChooserSnapshot{
		LayoutBitsetNodes: c.layoutBitset.Load(),
		LayoutUintNodes:   c.layoutUint.Load(),
		LayoutFlips:       c.layoutFlips.Load(),
	}
}
