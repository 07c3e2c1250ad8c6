package set

import (
	"math/bits"
	"sync"
)

// Intersection strategy notes.
//
// The paper (§II-A2) credits layout-aware set intersection with over an
// order of magnitude on intersection-bound join patterns. We implement the
// three kernel shapes, each word-parallel where the layout allows:
//
//   uint × uint  — branch-free linear merge (sign-bit arithmetic instead of
//                  a three-way compare, so random data stops paying one
//                  mispredict per step), switching to galloping with a
//                  4-candidate SWAR probe once one side is gallopRatio
//                  times the other;
//   bit  × bit   — 4-way unrolled 64-bit word AND over the overlapping
//                  range, writing into caller scratch;
//   uint × bit   — probe each array element into the bitset, or, once the
//                  array is bitGallopRatio times the bitset's members,
//                  decode those members and gallop the array from them;
//                  Marks builds such a bitmap over a uint array that is
//                  intersected repeatedly, so those intersections probe too
//                  — or gallop from the marked values, once the probed
//                  array is gallopRatio times them.
//
// The size rules live here and nowhere else: a caller names the sets, and
// the kernel their layouts and sizes call for runs.
//
// Results preserve the paper's layout decision: an intersection of two
// bitsets stays a bitset (re-densifying is wasted work for intermediate
// sets); every other combination yields a uint array.
//
// Every kernel has an *Into form that writes into a reusable Scratch so
// multiway intersections (IntersectMany, exec's materialization steps)
// never allocate per step.

// Size ratios from which galloping the larger side from the members of the
// smaller beats touching every member of the larger: gallopRatio against a
// merge of two uint arrays or a probe into a Marks bitmap, bitGallopRatio
// against a probe into a bitset, whose members must first be decoded.
// BenchmarkIntersectSizeRatio measures both crossovers.
const (
	gallopRatio    = 32
	bitGallopRatio = 16
)

// b2i converts a comparison to 0/1 without a branch (the compiler lowers
// this idiom to SETcc).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Scratch is a pair of reusable output buffers for allocation-free
// intersections. The two buffers alternate ("ping-pong"), so a returned set
// stays valid while one more intersection — typically consuming it — runs
// through the same scratch. Scratches are not safe for concurrent use; keep
// one per worker.
type Scratch struct {
	bufs [2]scratchBuf
	cur  int
}

type scratchBuf struct {
	vals  []uint32
	words []uint64
	ranks []int32
	set   Set
}

func (b *scratchBuf) valBuf(n int) []uint32 {
	if cap(b.vals) < n {
		b.vals = make([]uint32, n)
	}
	return b.vals[:n]
}

func (b *scratchBuf) wordBuf(n int) ([]uint64, []int32) {
	if cap(b.words) < n {
		b.words = make([]uint64, n)
		b.ranks = make([]int32, n)
	}
	return b.words[:n], b.ranks[:n]
}

// Intersect returns the intersection of a and b as a new Set. The kernels
// run through pooled scratch; only the exactly sized result allocates
// (never for an empty result).
func Intersect(a, b *Set) *Set {
	sc := manyScratchPool.Get().(*Scratch)
	out := scratchToOwned(sc.IntersectInto(a, b))
	manyScratchPool.Put(sc)
	return out
}

// IntersectInto computes a ∩ b into one of sc's two buffers and returns a
// view of it. The result is invalidated by the second-next call on sc (the
// next call writes the other buffer, which is what lets a fold consume its
// own previous output).
func (sc *Scratch) IntersectInto(a, b *Set) *Set {
	if a.card == 0 || b.card == 0 {
		return Empty
	}
	sc.cur ^= 1
	buf := &sc.bufs[sc.cur]
	switch {
	case a.layout == Bitset && b.layout == Bitset:
		return intersectBitBitInto(buf, a, b)
	case a.layout == UintArray && b.layout == UintArray:
		dst := buf.valBuf(min(a.card, b.card))
		return buf.initSorted(dst[:intersectUintUint(dst, a.vals, b.vals)])
	case a.layout == UintArray:
		dst := buf.valBuf(a.card)
		return buf.initSorted(dst[:intersectUintBit(dst, a.vals, b)])
	default:
		dst := buf.valBuf(b.card)
		return buf.initSorted(dst[:intersectUintBit(dst, b.vals, a)])
	}
}

// initSorted views vals as the buffer's uint-array set — without a seek
// directory: scratch results are consumed immediately, so building one
// would be an allocation per step for nothing.
func (b *scratchBuf) initSorted(vals []uint32) *Set {
	if len(vals) == 0 {
		return Empty
	}
	b.set = Set{layout: UintArray, vals: vals, card: len(vals)}
	return &b.set
}

// IntersectMany folds sets smallest-first through sc's ping-pong buffers,
// returning Empty as soon as the running intersection vanishes. The result
// is a view subject to Scratch reuse; a single input set is returned
// unchanged.
func (sc *Scratch) IntersectMany(sets []*Set) *Set {
	switch len(sets) {
	case 0:
		return Empty
	case 1:
		return sets[0]
	}
	// Fold starting from the two smallest; order the rest ascending too so
	// each step shrinks the running set as fast as possible. Insertion sort:
	// the fan-in is tiny (one set per query pattern).
	var orderArr [16]*Set
	order := orderArr[:0]
	if len(sets) > len(orderArr) {
		order = make([]*Set, 0, len(sets))
	}
	order = append(order, sets...)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].card < order[j-1].card; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	acc := sc.IntersectInto(order[0], order[1])
	for _, s := range order[2:] {
		if acc.card == 0 {
			return Empty
		}
		// acc lives in one buffer; IntersectInto writes the other.
		acc = sc.IntersectInto(acc, s)
	}
	if acc.card == 0 {
		return Empty
	}
	return acc
}

// scratchToOwned copies a scratch-backed result into freshly allocated,
// exactly sized storage.
func scratchToOwned(s *Set) *Set {
	if s.card == 0 {
		return Empty
	}
	out := &Set{layout: s.layout, base: s.base, card: s.card}
	switch s.layout {
	case UintArray:
		out.vals = append([]uint32(nil), s.vals...)
		attachDir(out)
	case Bitset:
		out.words = append([]uint64(nil), s.words...)
		out.ranks = append([]int32(nil), s.ranks...)
	}
	return out
}

// manyScratchPool backs the package-level IntersectMany: the fold runs
// through pooled ping-pong buffers and only the final result is
// materialized, instead of allocating a fresh Set per pairwise step.
var manyScratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// IntersectMany intersects all sets, smallest first, returning Empty as soon
// as the running intersection vanishes. A single set is returned unchanged;
// otherwise the result is freshly allocated and owned by the caller.
func IntersectMany(sets []*Set) *Set {
	if len(sets) == 1 {
		return sets[0]
	}
	sc := manyScratchPool.Get().(*Scratch)
	out := scratchToOwned(sc.IntersectMany(sets))
	manyScratchPool.Put(sc)
	return out
}

// IntersectValues appends the intersection of a and b to dst as sorted
// values and returns the extended slice. It never allocates a Set, making it
// suitable for pipelined execution.
func IntersectValues(dst []uint32, a, b *Set) []uint32 {
	if a.card == 0 || b.card == 0 {
		return dst
	}
	switch {
	case a.layout == UintArray && b.layout == UintArray:
		off := len(dst)
		dst = append(dst, make([]uint32, min(a.card, b.card))...)
		n := intersectUintUint(dst[off:], a.vals, b.vals)
		return dst[:off+n]
	case a.layout == Bitset && b.layout == Bitset:
		sc := manyScratchPool.Get().(*Scratch)
		dst = sc.IntersectInto(a, b).AppendValues(dst)
		manyScratchPool.Put(sc)
		return dst
	case a.layout == UintArray:
		off := len(dst)
		dst = append(dst, make([]uint32, a.card)...)
		n := intersectUintBit(dst[off:], a.vals, b)
		return dst[:off+n]
	default:
		off := len(dst)
		dst = append(dst, make([]uint32, b.card)...)
		n := intersectUintBit(dst[off:], b.vals, a)
		return dst[:off+n]
	}
}

// IntersectSorted writes a ∩ b into dst and returns the output count. a and
// b must be sorted and duplicate-free, and dst must hold at least
// min(len(a), len(b)) values. It is the uint×uint kernel on bare slices —
// branch-free merge, or galloping once one side is gallopRatio times the
// other — for callers that hold a set's members without its header (the
// join's fused tail reads them straight out of a trie's value arena).
func IntersectSorted(dst, a, b []uint32) int {
	return intersectUintUint(dst, a, b)
}

// intersectUintUint writes a ∩ b into dst (which must hold at least
// min(len(a), len(b)) values) and returns the output count.
func intersectUintUint(dst []uint32, a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	switch {
	case len(b) >= gallopRatio*len(a):
		return intersectGallop(dst, a, b)
	case len(a) < twoLaneMin:
		// Decided here rather than in intersectMerge, so that a small merge
		// — the common one in a join — never enters the lanes' large stack
		// frame, which can cost a goroutine stack growth.
		return mergeScalar(dst, 0, a, b, 0, 0)
	}
	return intersectMerge(dst, a, b)
}

// twoLaneMin is the size from which both sides of a merge are split into
// interleaved lanes.
const twoLaneMin = 1024

// intersectMerge is the sorted-list merge intersection, word-parallel in
// two senses. First, cursor advances are branch-free (SETcc from the
// compares, not a three-way branch), so random data stops paying one
// pipeline flush per element — only the rare equality emits through a
// branch, and that one predicts well. Second, large inputs are split at the
// median value into two independent merges interleaved in one loop: a merge
// is latency-bound on its compare→advance→load chain, and two chains in
// flight roughly double the throughput the ALUs actually deliver. a and b
// must each hold at least twoLaneMin members.
func intersectMerge(dst []uint32, a, b []uint32) int {
	// Slice a into quarters by index and b at the matching value boundaries:
	// lane L covers exactly the values in [aL[0], aL+1[0]), so lane outputs
	// are disjoint and each is bounded by min(len(aL), len(bL)). Lanes write
	// into staggered regions of dst sized to those bounds, then a compaction
	// pass closes the gaps.
	var as, bs [4][]uint32
	q := len(a) / 4
	as[0], as[1], as[2], as[3] = a[:q], a[q:2*q], a[2*q:3*q], a[3*q:]
	c1 := lowerBound(b, as[1][0])
	c2 := c1 + lowerBound(b[c1:], as[2][0])
	c3 := c2 + lowerBound(b[c2:], as[3][0])
	bs[0], bs[1], bs[2], bs[3] = b[:c1], b[c1:c2], b[c2:c3], b[c3:]
	var off, i, j, k [4]int
	for l := 1; l < 4; l++ {
		off[l] = off[l-1] + min(len(as[l-1]), len(bs[l-1]))
	}
	k = off
	a0, a1, a2, a3 := as[0], as[1], as[2], as[3]
	b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
	i0, i1, i2, i3 := 0, 0, 0, 0
	j0, j1, j2, j3 := 0, 0, 0, 0
	k0, k1, k2, k3 := k[0], k[1], k[2], k[3]
	for i0 < len(a0) && j0 < len(b0) && i1 < len(a1) && j1 < len(b1) &&
		i2 < len(a2) && j2 < len(b2) && i3 < len(a3) && j3 < len(b3) {
		av0, bv0 := a0[i0], b0[j0]
		av1, bv1 := a1[i1], b1[j1]
		av2, bv2 := a2[i2], b2[j2]
		av3, bv3 := a3[i3], b3[j3]
		if av0 == bv0 {
			dst[k0] = av0
			k0++
		}
		i0 += b2i(av0 <= bv0)
		j0 += b2i(bv0 <= av0)
		if av1 == bv1 {
			dst[k1] = av1
			k1++
		}
		i1 += b2i(av1 <= bv1)
		j1 += b2i(bv1 <= av1)
		if av2 == bv2 {
			dst[k2] = av2
			k2++
		}
		i2 += b2i(av2 <= bv2)
		j2 += b2i(bv2 <= av2)
		if av3 == bv3 {
			dst[k3] = av3
			k3++
		}
		i3 += b2i(av3 <= bv3)
		j3 += b2i(bv3 <= av3)
	}
	i[0], i[1], i[2], i[3] = i0, i1, i2, i3
	j[0], j[1], j[2], j[3] = j0, j1, j2, j3
	k[0], k[1], k[2], k[3] = k0, k1, k2, k3
	// Drain whichever lanes still have both inputs, then compact the lane
	// outputs down so the result is contiguous from dst[0].
	n := 0
	for l := 0; l < 4; l++ {
		k[l] = mergeScalar(dst, k[l], as[l], bs[l], i[l], j[l])
		n += copy(dst[n:], dst[off[l]:k[l]])
	}
	return n
}

// mergeScalar merges a[i:] with b[j:] into dst starting at k, returning the
// new k. One lane of intersectMerge; also the whole kernel for small inputs.
func mergeScalar(dst []uint32, k int, a, b []uint32, i, j int) int {
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av == bv {
			dst[k] = av
			k++
		}
		i += b2i(av <= bv)
		j += b2i(bv <= av)
	}
	return k
}

// lowerBound returns the first index with vals[idx] >= v.
func lowerBound(vals []uint32, v uint32) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vals[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// intersectGallop intersects a small sorted list a into a much larger sorted
// list b: a branch-free 4-candidate probe clears short advances in one step
// (SIMD-within-a-register: four comparisons issue in parallel, no branches),
// then exponential probing brackets the long jumps before a binary search.
// This is also the probe pattern of leapfrog triejoin.
func intersectGallop(dst []uint32, small, large []uint32) int {
	lo, k := 0, 0
	for _, v := range small {
		// 4-wide probe: in sorted data the lane count is the advance.
		if lo+4 <= len(large) {
			adv := b2i(large[lo] < v) + b2i(large[lo+1] < v) +
				b2i(large[lo+2] < v) + b2i(large[lo+3] < v)
			lo += adv
			if adv == 4 && lo < len(large) && large[lo] < v {
				lo = gallopSearch(large, lo, v)
			}
		} else {
			for lo < len(large) && large[lo] < v {
				lo++
			}
		}
		if lo >= len(large) {
			break
		}
		if large[lo] == v {
			dst[k] = v
			k++
			lo++
		}
	}
	return k
}

// gallopSearch returns the first index >= lo with large[idx] >= v, given
// large[lo] < v: exponential probe to bracket, then binary search.
func gallopSearch(large []uint32, lo int, v uint32) int {
	bound := 1
	for lo+bound < len(large) && large[lo+bound] < v {
		lo += bound
		bound <<= 1
	}
	hi := lo + bound
	if hi > len(large) {
		hi = len(large)
	}
	// Invariant: large[lo] < v; large[hi] >= v or hi == len(large).
	for lo+1 < hi {
		m := int(uint(lo+hi) >> 1)
		if large[m] < v {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// intersectUintBit writes the members of vals present in bs into dst
// (len(dst) >= len(vals)) and returns the count. Once vals is
// bitGallopRatio times bs's members, they are decoded into dst and vals is
// galloped from them in place — the output never overtakes the member being
// sought; otherwise every member of vals is probed into the words.
func intersectUintBit(dst []uint32, vals []uint32, bs *Set) int {
	if len(vals) >= bitGallopRatio*bs.card {
		return intersectGallop(dst, bs.AppendValues(dst[:0]), vals)
	}
	return probeWords(dst, vals, bs.words, bs.base)
}

// probeWords writes the members of vals whose bit is set in words, bit i of
// words[w] standing for base+64w+i, into dst (len(dst) >= len(vals)) and
// returns the count, in vals' order: one unsigned compare and one word test
// per value, with the emit branch-free.
func probeWords(dst, vals []uint32, words []uint64, base uint32) int {
	limit := uint32(len(words)) * 64
	k := 0
	for _, v := range vals {
		off := v - base
		// One unsigned compare covers both v < base (wraps huge) and past-end.
		if off >= limit {
			continue
		}
		dst[k] = v
		k += int((words[off/64] >> (off % 64)) & 1)
	}
	return k
}

// Probe writes the members of vals, sorted and duplicate-free, that s holds
// into dst (len(dst) >= len(vals)) and returns the count, in vals' order:
// the uint×bitset kernel on a bitset, for a caller holding the array as a
// bare slice, and the uint×uint kernel otherwise.
func (s *Set) Probe(dst, vals []uint32) int {
	if s.layout == Bitset {
		return intersectUintBit(dst, vals, s)
	}
	return intersectUintUint(dst, vals, s.vals)
}

// Marks is a range-relative bitmap of one sorted uint array's members, built
// so that the array can be intersected many times by probe rather than by
// merge: the §III-A idea of choosing a set's layout by how it is used,
// applied to a set that is reused. Probe is the intersectUintBit shape —
// one unsigned compare and one word test per probed value, no dependent
// chain of loads — until the probed values outnumber the marked ones
// gallopRatio times over. The zero value is ready to use, and a Marks that
// has been cleared holds only zero words, so it can be pooled and reused
// for any array. A Marks is not safe for concurrent use.
type Marks struct {
	words  []uint64 // len = words in the marked range; every word past it, to cap, is zero
	base   uint32   // the first marked value rounded down to a multiple of 64
	marked []uint32 // the values marked, so that Clear touches only their words
}

// Mark records vals, which must be sorted, duplicate-free and non-empty, into
// a cleared m, and reports true. It reports false, marking nothing, when the
// range from the first value rounded down to 64 through the last would take
// more than maxWords words.
func (m *Marks) Mark(vals []uint32, maxWords int) bool {
	base := vals[0] &^ 63
	n := int((vals[len(vals)-1]-base)/64) + 1
	if n > maxWords {
		return false
	}
	if cap(m.words) < n {
		m.words = make([]uint64, n, max(n, min(2*cap(m.words), maxWords)))
	}
	words := m.words[:n]
	for _, v := range vals {
		off := v - base
		words[off/64] |= 1 << (off % 64)
	}
	m.words, m.base, m.marked = words, base, vals
	return true
}

// Probe writes the members of vals, sorted and duplicate-free, that are
// marked into dst (len(dst) >= len(vals)) and returns the count; the output
// keeps vals' order. Once vals is gallopRatio times the marked values, it
// gallops vals from them instead of testing every member of vals.
func (m *Marks) Probe(dst, vals []uint32) int {
	if len(vals) >= gallopRatio*len(m.marked) {
		return intersectGallop(dst, m.marked, vals)
	}
	return probeWords(dst, vals, m.words, m.base)
}

// Clear unmarks everything, zeroing only the words the marked values set,
// and drops the reference to them.
func (m *Marks) Clear() {
	for _, v := range m.marked {
		m.words[(v-m.base)/64] = 0
	}
	m.words, m.marked = m.words[:0], nil
}

// IsClear reports whether every word m holds, to its capacity, is zero —
// what a pool of Marks must guarantee. It scans the whole bitmap; it is for
// tests and assertions, not the hot path.
func (m *Marks) IsClear() bool {
	for _, w := range m.words[:cap(m.words)] {
		if w != 0 {
			return false
		}
	}
	return true
}

// intersectBitBitInto ANDs the overlapping word ranges with a 4-way unrolled
// branch-free loop into buf and initializes buf.set over the trimmed result.
func intersectBitBitInto(buf *scratchBuf, a, b *Set) *Set {
	lo := a.base
	if b.base > lo {
		lo = b.base
	}
	aEnd := a.base + uint32(len(a.words)*64)
	bEnd := b.base + uint32(len(b.words)*64)
	hi := aEnd
	if bEnd < hi {
		hi = bEnd
	}
	if lo >= hi {
		return Empty
	}
	n := int(hi-lo) / 64
	aw := a.words[int(lo-a.base)/64:]
	bw := b.words[int(lo-b.base)/64:]
	words, ranks := buf.wordBuf(n)
	card := 0
	i := 0
	// 4-way unrolled AND: four independent word ANDs and popcounts per
	// iteration keep the ALUs busy instead of serializing on one chain.
	for ; i+4 <= n; i += 4 {
		w0 := aw[i] & bw[i]
		w1 := aw[i+1] & bw[i+1]
		w2 := aw[i+2] & bw[i+2]
		w3 := aw[i+3] & bw[i+3]
		words[i], words[i+1], words[i+2], words[i+3] = w0, w1, w2, w3
		card += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < n; i++ {
		w := aw[i] & bw[i]
		words[i] = w
		card += bits.OnesCount64(w)
	}
	if card == 0 {
		return Empty
	}
	// Trim leading/trailing zero words so the range stays tight.
	first := 0
	for words[first] == 0 {
		first++
	}
	last := n - 1
	for words[last] == 0 {
		last--
	}
	words = words[first : last+1]
	InitBitset(&buf.set, words, ranks[:len(words)], lo+uint32(first*64), card)
	return &buf.set
}
