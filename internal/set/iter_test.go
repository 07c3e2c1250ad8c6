package set

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// bothLayouts materializes the same membership in both physical layouts so
// every iterator property can be checked for layout-independence (the
// crossover half of the seek contract: a leapfrog over mixed layouts must
// behave identically to one over uniform layouts).
func iterLayouts(vals []uint32) (uintS, bitS *Set) {
	// Bound the domain so the bitset materialization stays small; property
	// coverage cares about membership patterns, not absolute magnitudes.
	sorted := make([]uint32, len(vals))
	for i, v := range vals {
		sorted[i] = v % 100003
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) > 0 {
		sorted = dedupSorted(sorted)
	}
	uintS = &Set{}
	if len(sorted) > 0 {
		*uintS = Set{layout: UintArray, vals: sorted, card: len(sorted)}
	}
	if len(sorted) == 0 {
		return uintS, Empty
	}
	return uintS, bitsetFromSorted(sorted)
}

func collectIter(s *Set) []uint32 {
	var it Iter
	it.Reset(s)
	var out []uint32
	for ; !it.Done(); it.Next() {
		out = append(out, it.Cur())
	}
	return out
}

func TestIterMatchesIterate(t *testing.T) {
	f := func(vals []uint32) bool {
		u, b := iterLayouts(vals)
		want := u.Values()
		if len(want) == 0 {
			want = nil
		}
		return reflect.DeepEqual(collectIter(u), want) &&
			reflect.DeepEqual(collectIter(b), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIterPosIsRank(t *testing.T) {
	f := func(vals []uint32) bool {
		for _, s := range func() []*Set { u, b := iterLayouts(vals); return []*Set{u, b} }() {
			var it Iter
			want := 0
			for it.Reset(s); !it.Done(); it.Next() {
				if it.Pos() != want {
					return false
				}
				if r, ok := s.Rank(it.Cur()); !ok || r != want {
					return false
				}
				want++
			}
			if want != s.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeChunksMatchesValues checks DecodeChunks against Values: from
// any start, in buffers of 1, 3, 64 and 256 members, every chunk is full
// but the last, the chunks concatenate to the members at or above the
// start, and emit's error stops the decode at once.
func TestDecodeChunksMatchesValues(t *testing.T) {
	f := func(vals []uint32, from uint32) bool {
		u, b := iterLayouts(vals)
		if b.Layout() != Bitset {
			return true // the empty set
		}
		members := u.Values()
		for _, start := range []uint32{0, from % 100010, members[0] + 1} {
			want := members[sort.Search(len(members), func(i int) bool { return members[i] >= start }):]
			for _, n := range []int{1, 3, 64, 256} {
				var got []uint32
				short := false
				err := b.DecodeChunks(make([]uint32, n), start, func(c []uint32) error {
					if short || len(c) == 0 || len(c) > n {
						return errStop
					}
					short = len(c) < n
					got = append(got, c...)
					return nil
				})
				if err != nil || len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
					return false
				}
				calls := 0
				err = b.DecodeChunks(make([]uint32, n), start, func([]uint32) error { calls++; return errStop })
				if len(want) > 0 && (err != errStop || calls != 1) || len(want) == 0 && (err != nil || calls != 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

var errStop = errors.New("stop")

// TestSeekGEContract checks, across both layouts and against a reference
// linear scan: SeekGE lands on the smallest member ≥ v, reports presence
// exactly, never moves backwards, and leaves an in-position iterator alone.
func TestSeekGEContract(t *testing.T) {
	f := func(vals []uint32, probesRaw []uint32) bool {
		u, b := iterLayouts(vals)
		members := u.Values()
		// Probes must be sought in ascending order (the leapfrog discipline);
		// mix raw probes with existing members shifted by ±1 to hit edges.
		probes := append([]uint32(nil), probesRaw...)
		for _, m := range members {
			probes = append(probes, m, m+1, m-1)
		}
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		for _, s := range []*Set{u, b} {
			var it Iter
			it.Reset(s)
			for _, v := range probes {
				prevDone := it.Done()
				prevPos := it.pos
				ok := it.SeekGE(v)
				// Reference: smallest member >= v.
				i := sort.Search(len(members), func(i int) bool { return members[i] >= v })
				if ok != (i < len(members)) {
					return false
				}
				if prevDone && ok {
					return false // exhausted iterators must stay exhausted
				}
				if ok {
					if it.Cur() != members[i] || it.Pos() != i {
						return false
					}
					if it.pos < prevPos {
						return false // monotone: never moves backwards
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSeekGECrossLayout drives two iterators over the same membership in
// different layouts with an identical probe sequence and demands identical
// observable behavior at every step.
func TestSeekGECrossLayout(t *testing.T) {
	f := func(vals []uint32, probesRaw []uint32) bool {
		u, b := iterLayouts(vals)
		probes := append([]uint32(nil), probesRaw...)
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		var iu, ib Iter
		iu.Reset(u)
		ib.Reset(b)
		for step, v := range probes {
			oku, okb := iu.SeekGE(v), ib.SeekGE(v)
			if oku != okb {
				return false
			}
			if oku && (iu.Cur() != ib.Cur() || iu.Pos() != ib.Pos()) {
				return false
			}
			// Interleave Next to exercise the word-advance path.
			if step%3 == 0 && oku {
				iu.Next()
				ib.Next()
				if iu.Done() != ib.Done() {
					return false
				}
				if !iu.Done() && iu.Cur() != ib.Cur() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIterEmptyAndZero(t *testing.T) {
	var it Iter
	if !it.Done() {
		t.Errorf("zero Iter should be exhausted")
	}
	if it.SeekGE(0) {
		t.Errorf("zero Iter SeekGE should fail")
	}
	it.Reset(Empty)
	if !it.Done() || it.SeekGE(42) {
		t.Errorf("empty set iterator should be exhausted")
	}
	it.Reset(nil)
	if !it.Done() {
		t.Errorf("nil set iterator should be exhausted")
	}
}

func TestSeekGEBeyondMax(t *testing.T) {
	for _, policy := range []Policy{PolicyUintOnly, PolicyAuto} {
		s := FromSorted([]uint32{64, 65, 66, 67, 68, 69, 70, 71}, policy)
		var it Iter
		it.Reset(s)
		if !it.SeekGE(70) || it.Cur() != 70 {
			t.Fatalf("%v: SeekGE(70) failed", s.Layout())
		}
		if it.SeekGE(100) {
			t.Errorf("%v: SeekGE past max should fail", s.Layout())
		}
		if !it.Done() {
			t.Errorf("%v: iterator should be exhausted after failed seek", s.Layout())
		}
	}
}

func TestInitSortedViewAndInitBitset(t *testing.T) {
	vals := []uint32{3, 9, 70, 200}
	var u Set
	InitSortedView(&u, vals)
	if u.Layout() != UintArray || u.Len() != 4 || !reflect.DeepEqual(u.Values(), vals) {
		t.Errorf("InitSortedView: %v %v", u, u.Values())
	}
	var z Set
	InitSortedView(&z, nil)
	if z.Len() != 0 {
		t.Errorf("InitSortedView(nil) not empty")
	}

	ref := bitsetFromSorted(vals)
	words := make([]uint64, len(ref.words))
	copy(words, ref.words)
	ranks := make([]int32, len(words))
	var b Set
	InitBitset(&b, words, ranks, ref.base, 4)
	if b.Layout() != Bitset || !b.Equal(ref) {
		t.Errorf("InitBitset mismatch: %v vs %v", b.Values(), ref.Values())
	}
	for _, v := range vals {
		if r1, ok1 := b.Rank(v); !ok1 {
			t.Errorf("InitBitset Rank(%d) absent", v)
		} else if r2, _ := ref.Rank(v); r1 != r2 {
			t.Errorf("InitBitset Rank(%d) = %d, want %d", v, r1, r2)
		}
	}
}

func TestWantBitsetMatchesFromSorted(t *testing.T) {
	f := func(vals []uint32) bool {
		sorted := append([]uint32(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if len(sorted) == 0 {
			return !WantBitset(0, 0, 0, PolicyAuto)
		}
		sorted = dedupSorted(sorted)
		min, max := sorted[0], sorted[len(sorted)-1]
		for _, p := range []Policy{PolicyAuto, PolicyUintOnly} {
			got := FromSorted(append([]uint32(nil), sorted...), p)
			if WantBitset(len(sorted), min, max, p) != (got.Layout() == Bitset) {
				return false
			}
			if got.Layout() == Bitset && BitsetWords(min, max) != len(got.words) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSeekGE measures the seek kernels: a leapfrog-style ascending
// probe sequence over each layout, versus the repeated full binary search
// (Rank) the old join loop paid per probe.
func BenchmarkSeekGE(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sparse := genSorted(rng, 1<<16, 0.001) // uint layout under auto
	dense := genSorted(rng, 1<<16, 0.5)    // bitset layout under auto
	probeEvery := uint32(3)
	for _, tc := range []struct {
		name string
		s    *Set
	}{
		{"uint", FromSorted(sparse, PolicyUintOnly)},
		{"bitset", FromSorted(dense, PolicyAuto)},
	} {
		maxV := tc.s.Max()
		b.Run(tc.name+"/seek", func(b *testing.B) {
			var it Iter
			for i := 0; i < b.N; i++ {
				it.Reset(tc.s)
				for v := uint32(0); v < maxV; v += probeEvery {
					if !it.SeekGE(v) {
						break
					}
				}
			}
		})
		b.Run(tc.name+"/rank", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for v := uint32(0); v < maxV; v += probeEvery {
					tc.s.Rank(v)
				}
			}
		})
	}
}
