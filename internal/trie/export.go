package trie

import (
	"fmt"

	"repro/internal/set"
	"repro/internal/stats"
)

// LevelData is the serializable image of one trie level: the four arenas
// verbatim plus the per-node metadata that is not derivable from them alone
// (which layout each node's set uses, and each bitset node's base and word
// count — everything else, including every node's cardinality, follows from
// the CSR start offsets). internal/segment writes these slices to disk and
// hands mmap-backed views of the same bytes to FromLevels on load.
type LevelData struct {
	// Start is the CSR offset arena (len = nodes+1, or 1 for an empty
	// deeper level).
	Start []int32
	// Vals is the concatenated uint-layout member arena.
	Vals []uint32
	// Words and Ranks are the concatenated bitset word and rank-directory
	// arenas.
	Words []uint64
	Ranks []int32
	// LayoutBits has bit n set iff node n's set uses the bitset layout
	// (len = ceil(nodes/64)).
	LayoutBits []uint64
	// BitsetBase and BitsetNWords give, per bitset-layout node in node
	// order, the set's base value and word count.
	BitsetBase   []uint32
	BitsetNWords []int32
	// Stats is the level histogram recorded at build time. Zero-valued when
	// the trie predates statistics (version-1 segment files).
	Stats stats.Level
}

// Export returns the level images of a full trie (not a Sub view). The
// returned slices alias the trie's arenas; callers must not mutate them.
func (t *Trie) Export() []LevelData {
	if t.rootLevel != 0 || t.rootNode != 0 {
		panic("trie: Export of a subtree view")
	}
	out := make([]LevelData, len(t.levels))
	for l := range t.levels {
		lv := &t.levels[l]
		ld := LevelData{
			Start: lv.start,
			Vals:  lv.vals,
			Words: lv.words,
			Ranks: lv.ranks,
		}
		if t.lstats != nil {
			ld.Stats = t.lstats[l]
		}
		if n := len(lv.sets); n > 0 {
			ld.LayoutBits = make([]uint64, (n+63)/64)
		}
		for i := range lv.sets {
			s := &lv.sets[i]
			if s.Layout() != set.Bitset {
				continue
			}
			ld.LayoutBits[i/64] |= 1 << (i % 64)
			words, _, base := s.RawBitset()
			ld.BitsetBase = append(ld.BitsetBase, base)
			ld.BitsetNWords = append(ld.BitsetNWords, int32(len(words)))
		}
		out[l] = ld
	}
	return out
}

// FromLevels reconstructs a trie from exported level images — the load half
// of Export. The arena slices are retained as-is (they may be read-only
// mmap views; nothing writes to them); only the per-node set headers are
// rebuilt, one O(nodes) sequential pass. tuples is the distinct tuple
// count. Structural inconsistencies return an error instead of panicking,
// since the input typically comes from a file.
func FromLevels(tuples int, levels []LevelData) (*Trie, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("trie: FromLevels with zero levels")
	}
	t := &Trie{arity: len(levels), tuples: tuples, levels: make([]level, len(levels)),
		lstats: make([]stats.Level, len(levels))}
	for l, ld := range levels {
		t.lstats[l] = ld.Stats
		nodes := len(ld.Start) - 1
		if nodes < 0 {
			return nil, fmt.Errorf("trie: level %d has empty start arena", l)
		}
		if ld.Start[0] != 0 {
			// Node n's uint members sit at Vals[Start[n]:] (Node.UintValues).
			return nil, fmt.Errorf("trie: level %d start arena does not begin at 0", l)
		}
		lv := &t.levels[l]
		*lv = level{start: ld.Start, vals: ld.Vals, words: ld.Words, ranks: ld.Ranks,
			sets: make([]set.Set, nodes)}
		valOff, wordOff, bi := 0, 0, 0
		for n := 0; n < nodes; n++ {
			card := int(ld.Start[n+1] - ld.Start[n])
			if card < 0 {
				return nil, fmt.Errorf("trie: level %d node %d has negative cardinality", l, n)
			}
			if len(ld.LayoutBits) > n/64 && ld.LayoutBits[n/64]&(1<<(n%64)) != 0 {
				if bi >= len(ld.BitsetBase) || bi >= len(ld.BitsetNWords) {
					return nil, fmt.Errorf("trie: level %d bitset table too short", l)
				}
				base, nw := ld.BitsetBase[bi], int(ld.BitsetNWords[bi])
				bi++
				if nw <= 0 || wordOff+nw > len(ld.Words) || wordOff+nw > len(ld.Ranks) {
					return nil, fmt.Errorf("trie: level %d node %d word range out of bounds", l, n)
				}
				set.InitBitsetRanked(&lv.sets[n],
					ld.Words[wordOff:wordOff+nw:wordOff+nw],
					ld.Ranks[wordOff:wordOff+nw:wordOff+nw], base, card)
				wordOff += nw
			} else {
				if valOff+card > len(ld.Vals) {
					return nil, fmt.Errorf("trie: level %d node %d value range out of bounds", l, n)
				}
				set.InitSortedView(&lv.sets[n], ld.Vals[valOff:valOff+card:valOff+card])
				valOff += card
			}
		}
	}
	return t, nil
}
