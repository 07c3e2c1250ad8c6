// Package set implements the two set layouts EmptyHeaded chooses between
// (§II-A2 of the paper): a sorted unsigned-integer array and a bitset. The
// layout optimizer picks the bitset layout when more than one out of every
// 256 values in the set's range is present (256 being the size of an AVX
// register in the paper); otherwise it defaults to the unsigned integer
// array.
//
// Sets are immutable after construction. All values are 32-bit ids produced
// by dictionary encoding (internal/dict).
package set

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Layout identifies the physical representation of a Set.
type Layout uint8

const (
	// UintArray stores the members as a sorted []uint32.
	UintArray Layout = iota
	// Bitset stores the members as a bit vector over [base, base+64*len(words)).
	Bitset
)

func (l Layout) String() string {
	switch l {
	case UintArray:
		return "uint"
	case Bitset:
		return "bitset"
	default:
		return fmt.Sprintf("Layout(%d)", uint8(l))
	}
}

// Policy controls how the layout optimizer chooses representations. The
// ablations in Table I of the paper toggle between these.
type Policy uint8

const (
	// PolicyAuto applies the paper's rule: bitset when density exceeds
	// 1/256, uint array otherwise.
	PolicyAuto Policy = iota
	// PolicyUintOnly always chooses the unsigned integer array layout. This
	// is the "-Layout" configuration in Table I and the layout used by the
	// LogicBlox-like baseline.
	PolicyUintOnly
	// PolicyAdaptive replaces the paper's global 1-in-256 rule with the
	// crossover measured on this codebase's word-parallel kernels: bitsets
	// win above one member in every adaptiveDenominator values of span, but
	// only once a set is big enough (adaptiveMinCard) that word-AND setup
	// beats a short merge, and enumeration-heavy tiny sets stay uint arrays.
	// This is the layout the statistics-driven chooser (internal/trie with
	// internal/stats) uses for serving indexes.
	PolicyAdaptive
)

// densityDenominator is the paper's 1-in-256 rule.
const densityDenominator = 256

// Adaptive-crossover constants. Measured with BenchmarkIntersectDensitySweep
// on the branch-free kernels: word-AND intersection costs ~2ns/word where
// the uint merge costs ~3-4ns/member, so a bitset pays once the set carries
// at least one member per two words of span (1/128); below adaptiveMinCard
// members the fixed word-scan and rank-directory setup outweighs any
// density advantage and iteration (the other half of the workload) strongly
// favors the flat array.
const (
	adaptiveDenominator = 128
	adaptiveMinCard     = 16
)

// Set is an immutable sorted set of uint32 values in one of two layouts.
// The zero value is the empty set in the UintArray layout.
type Set struct {
	layout Layout
	vals   []uint32 // UintArray: sorted distinct members
	words  []uint64 // Bitset: bit i of words[w] set => member base+64w+i
	ranks  []int32  // Bitset: ranks[w] = number of members in words[:w]
	base   uint32   // Bitset: value of bit 0 of words[0]; multiple of 64
	card   int
	// dir is the uint layout's seek directory: dir[k] = vals[k*64], built
	// for sets of at least uintDirMinCard members. Iter.SeekGE binary
	// searches this 64x smaller array to land in the right block before
	// searching inside it, the uint-layout analogue of the bitset's rank
	// directory.
	dir []uint32
}

// uintDirMinCard is the uint-layout cardinality above which FromSorted and
// InitSortedView attach a seek directory. Small sets gallop fast enough
// that the extra allocation (the trie builder backs thousands of tiny
// per-node sets) would cost more than it saves.
const uintDirMinCard = 2048

// buildDir samples every 64th member into the seek directory.
func buildDir(vals []uint32) []uint32 {
	n := (len(vals) + 63) / 64
	dir := make([]uint32, n)
	for k := 0; k < n; k++ {
		dir[k] = vals[k*64]
	}
	return dir
}

func attachDir(s *Set) {
	if s.layout == UintArray && s.card >= uintDirMinCard {
		s.dir = buildDir(s.vals)
	}
}

// Empty is the canonical empty set.
var Empty = &Set{}

// FromSorted builds a Set from a sorted, duplicate-free slice of values,
// choosing the layout according to policy. The slice is retained when the
// uint layout is chosen; callers must not mutate it afterwards.
func FromSorted(vals []uint32, policy Policy) *Set {
	if len(vals) == 0 {
		return Empty
	}
	if WantBitset(len(vals), vals[0], vals[len(vals)-1], policy) {
		return bitsetFromSorted(vals)
	}
	s := &Set{layout: UintArray, vals: vals, card: len(vals)}
	attachDir(s)
	return s
}

// WantBitset reports whether FromSorted would choose the bitset layout for
// a sorted set of the given cardinality and bounds under policy. The flat
// trie builder (internal/trie) asks before constructing anything so it can
// size its value and word arenas exactly.
func WantBitset(card int, min, max uint32, policy Policy) bool {
	switch policy {
	case PolicyAuto:
		return card > 0 && denseEnough(card, min, max)
	case PolicyAdaptive:
		if card < adaptiveMinCard {
			return false
		}
		span := uint64(max) - uint64(min) + 1
		return uint64(card)*adaptiveDenominator > span
	}
	return false
}

// PaperRuleWantBitset is the unmodified 1-in-256 decision, exported so the
// adaptive builder can count how often the measured crossover disagrees
// with the paper's rule (the "layout flips" the chooser stats report).
func PaperRuleWantBitset(card int, min, max uint32) bool {
	return card > 0 && denseEnough(card, min, max)
}

// BitsetWords returns the number of 64-bit words a bitset spanning
// [min, max] occupies (its base is min rounded down to a word boundary).
func BitsetWords(min, max uint32) int {
	return int((max-(min&^63))/64) + 1
}

// InitSortedView initializes dst in place as a uint-array set viewing vals,
// which must be sorted and duplicate-free. vals is retained, not copied —
// this is how the flat trie backs thousands of per-node sets with slices of
// one shared arena instead of per-set allocations. Empty vals yield the
// empty set.
func InitSortedView(dst *Set, vals []uint32) {
	if len(vals) == 0 {
		*dst = Set{}
		return
	}
	*dst = Set{layout: UintArray, vals: vals, card: len(vals)}
	attachDir(dst)
}

// InitBitset initializes dst in place as a bitset over pre-filled words
// (bit i of words[w] set ⇔ member base+64w+i). base must be a multiple of
// 64, the first and last words must be non-zero, and card must equal the
// total popcount. The rank directory is computed into ranks, which must
// have len(words); both slices are retained. The flat trie builder carves
// words and ranks out of per-level arenas.
func InitBitset(dst *Set, words []uint64, ranks []int32, base uint32, card int) {
	total := int32(0)
	for i, w := range words {
		ranks[i] = total
		total += int32(bits.OnesCount64(w))
	}
	*dst = Set{layout: Bitset, words: words, ranks: ranks, base: base, card: card}
}

// FromValues builds a Set from an arbitrary slice of values: it sorts,
// deduplicates (copying, so the argument is not retained or mutated), and
// applies the layout policy.
func FromValues(vals []uint32, policy Policy) *Set {
	if len(vals) == 0 {
		return Empty
	}
	cp := make([]uint32, len(vals))
	copy(cp, vals)
	slices.Sort(cp)
	cp = dedupSorted(cp)
	return FromSorted(cp, policy)
}

func dedupSorted(v []uint32) []uint32 {
	out := v[:1]
	for _, x := range v[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// denseEnough applies the paper's rule: use a bitset when more than one out
// of every densityDenominator values in [min, max] appears.
func denseEnough(card int, min, max uint32) bool {
	span := uint64(max) - uint64(min) + 1
	return uint64(card)*densityDenominator > span
}

func bitsetFromSorted(vals []uint32) *Set {
	base := vals[0] &^ 63
	span := vals[len(vals)-1] - base
	nwords := int(span/64) + 1
	words := make([]uint64, nwords)
	for _, v := range vals {
		off := v - base
		words[off/64] |= 1 << (off % 64)
	}
	return finishBitset(words, base, len(vals))
}

// finishBitset attaches the rank directory. words must have a non-zero first
// and last word (callers trim), card must equal the total popcount.
func finishBitset(words []uint64, base uint32, card int) *Set {
	ranks := make([]int32, len(words))
	total := int32(0)
	for i, w := range words {
		ranks[i] = total
		total += int32(bits.OnesCount64(w))
	}
	return &Set{layout: Bitset, words: words, ranks: ranks, base: base, card: card}
}

// Layout returns the physical layout of s.
func (s *Set) Layout() Layout { return s.layout }

// Len returns the cardinality of s.
func (s *Set) Len() int { return s.card }

// Min returns the smallest member. It panics on the empty set.
func (s *Set) Min() uint32 {
	if s.card == 0 {
		panic("set: Min of empty set")
	}
	if s.layout == UintArray {
		return s.vals[0]
	}
	for i, w := range s.words {
		if w != 0 {
			return s.base + uint32(i*64+bits.TrailingZeros64(w))
		}
	}
	panic("set: corrupt bitset")
}

// Max returns the largest member. It panics on the empty set.
func (s *Set) Max() uint32 {
	if s.card == 0 {
		panic("set: Max of empty set")
	}
	if s.layout == UintArray {
		return s.vals[len(s.vals)-1]
	}
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return s.base + uint32(i*64+63-bits.LeadingZeros64(w))
		}
	}
	panic("set: corrupt bitset")
}

// Contains reports whether v is a member of s. For the bitset layout this is
// the constant-time probe the paper relies on for equality selections
// (§III-A); for the uint layout it is a binary search.
func (s *Set) Contains(v uint32) bool {
	switch s.layout {
	case UintArray:
		i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
		return i < len(s.vals) && s.vals[i] == v
	case Bitset:
		if v < s.base {
			return false
		}
		off := v - s.base
		w := int(off / 64)
		if w >= len(s.words) {
			return false
		}
		return s.words[w]&(1<<(off%64)) != 0
	}
	return false
}

// Rank returns the number of members strictly smaller than v, along with
// whether v itself is a member. When v is a member, Rank is its 0-based
// index in sorted order — this is how tries address child nodes.
func (s *Set) Rank(v uint32) (int, bool) {
	switch s.layout {
	case UintArray:
		i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
		return i, i < len(s.vals) && s.vals[i] == v
	case Bitset:
		if v < s.base {
			return 0, false
		}
		off := v - s.base
		w := int(off / 64)
		if w >= len(s.words) {
			return s.card, false
		}
		bit := off % 64
		below := int(s.ranks[w]) + bits.OnesCount64(s.words[w]&((1<<bit)-1))
		return below, s.words[w]&(1<<bit) != 0
	}
	return 0, false
}

// Select returns the i-th member in sorted order (0-based). It panics if i
// is out of range.
func (s *Set) Select(i int) uint32 {
	if i < 0 || i >= s.card {
		panic(fmt.Sprintf("set: Select(%d) out of range (card %d)", i, s.card))
	}
	switch s.layout {
	case UintArray:
		return s.vals[i]
	case Bitset:
		// Find the word containing the i-th member via the rank directory.
		w := sort.Search(len(s.ranks), func(w int) bool { return int(s.ranks[w]) > i }) - 1
		rem := i - int(s.ranks[w])
		word := s.words[w]
		for ; rem > 0; rem-- {
			word &= word - 1 // clear lowest set bit
		}
		return s.base + uint32(w*64+bits.TrailingZeros64(word))
	}
	panic("set: corrupt layout")
}

// Iterate calls fn for each member in ascending order with its 0-based
// index. Iteration stops early if fn returns false.
func (s *Set) Iterate(fn func(i int, v uint32) bool) {
	switch s.layout {
	case UintArray:
		for i, v := range s.vals {
			if !fn(i, v) {
				return
			}
		}
	case Bitset:
		idx := 0
		for w, word := range s.words {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				if !fn(idx, s.base+uint32(w*64+b)) {
					return
				}
				idx++
				word &= word - 1
			}
		}
	}
}

// Values returns the members as a fresh sorted slice.
func (s *Set) Values() []uint32 {
	out := make([]uint32, 0, s.card)
	s.Iterate(func(_ int, v uint32) bool {
		out = append(out, v)
		return true
	})
	return out
}

// AppendValues appends the members to dst in ascending order and returns the
// extended slice. It avoids the allocation of Values when a buffer is
// available, and decodes a bitset word by word, with no call per member.
func (s *Set) AppendValues(dst []uint32) []uint32 {
	if s.layout == UintArray {
		return append(dst, s.vals...)
	}
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, s.base+uint32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// DecodeChunks calls emit with the members of the bitset s at or above
// from, in ascending chunks of at most len(buf) members decoded into buf
// word by word, with no call per member, and returns emit's first error,
// decoding no chunk after it: a caller that stops early decodes at most
// one chunk past what it used. buf must not be empty.
func (s *Set) DecodeChunks(buf []uint32, from uint32, emit func([]uint32) error) error {
	if s.layout != Bitset {
		panic("set: DecodeChunks of a uint array")
	}
	var off uint32
	if from > s.base {
		off = from - s.base
	}
	w := int(off / 64)
	if w >= len(s.words) {
		return nil
	}
	n := 0
	for word := s.words[w] &^ (1<<(off%64) - 1); ; word = s.words[w] {
		for ; word != 0; word &= word - 1 {
			buf[n] = s.base + uint32(w*64+bits.TrailingZeros64(word))
			if n++; n == len(buf) {
				if err := emit(buf); err != nil {
					return err
				}
				n = 0
			}
		}
		if w++; w == len(s.words) {
			break
		}
	}
	if n == 0 {
		return nil
	}
	return emit(buf[:n])
}

// Equal reports whether two sets have identical membership, regardless of
// layout.
func (s *Set) Equal(o *Set) bool {
	if s.card != o.card {
		return false
	}
	eq := true
	i := 0
	ov := make([]uint32, 0, o.card)
	ov = o.AppendValues(ov)
	s.Iterate(func(_ int, v uint32) bool {
		if ov[i] != v {
			eq = false
			return false
		}
		i++
		return true
	})
	return eq
}

// String renders a short human-readable description, useful in tests.
func (s *Set) String() string {
	return fmt.Sprintf("Set{%s, card=%d}", s.layout, s.card)
}

// MemoryBytes estimates the heap bytes used by the set's payload. The layout
// optimizer benchmarks report this.
func (s *Set) MemoryBytes() int {
	switch s.layout {
	case UintArray:
		return 4 * (len(s.vals) + len(s.dir))
	case Bitset:
		return 8*len(s.words) + 4*len(s.ranks)
	}
	return 0
}
