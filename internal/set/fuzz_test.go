package set_test

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/set"
)

// fuzzVals decodes raw fuzz bytes into a sorted, deduplicated value slice.
// Two bytes per value keeps the domain small enough that intersections are
// non-trivially populated; a stride byte occasionally stretches the domain
// so both the dense (bitset) and sparse (uint + gallop) kernels run.
func fuzzVals(data []byte, stride uint32) []uint32 {
	seen := map[uint32]bool{}
	var vals []uint32
	for i := 0; i+1 < len(data); i += 2 {
		v := (uint32(data[i])<<8 | uint32(data[i+1])) * (stride + 1)
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	slices.Sort(vals)
	return vals
}

// refIntersect is the obviously-correct reference: map membership.
func refIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	out := []uint32{}
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

func sameVals(t *testing.T, label string, got *set.Set, want []uint32) {
	t.Helper()
	gv := got.AppendValues(nil)
	if len(gv) != len(want) {
		t.Fatalf("%s: got %d values, want %d (%v vs %v)", label, len(gv), len(want), gv, want)
	}
	for i := range want {
		if gv[i] != want[i] {
			t.Fatalf("%s: value %d = %d, want %d", label, i, gv[i], want[i])
		}
	}
}

// FuzzIntersectKernels drives every intersection kernel — merge (4-lane
// interleaved), gallop (4-wide probe), uint×bitset, bitset×bitset word-AND,
// the bare-slice IntersectSorted entry the join's last attribute calls, the
// Marks bitmap and the Set.Probe of a bare slice its fused tail probes a
// hoisted intersection through, the scratch-buffer IntersectInto path, and
// the ping-pong IntersectMany fold —
// against the map-membership reference, across all layout pairings the
// policies can produce.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3}, []byte{0, 2, 0, 3, 0, 4}, byte(0))
	f.Add([]byte{0, 1, 1, 0}, []byte{0, 1, 2, 0}, byte(9))
	f.Add([]byte{}, []byte{0, 5}, byte(1))
	f.Add([]byte{0, 1, 0, 2}, []byte{0, 64}, byte(0)) // probes the first value past a one-word bitmap
	// A three-member bitset (under PolicyAuto) against a 60-member uint
	// array holding one of them, past bitGallopRatio: the uint×bitset kernel
	// gallops the array from the bitset's members. A one-value mark against
	// 40 values, past gallopRatio: Marks.Probe gallops them from the mark.
	f.Add(be16(256, 257, 258), skewedSeed(60, 257), byte(0))
	f.Add(be16(1000), skewedSeed(40, 1000), byte(0))
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte, stride byte) {
		av := fuzzVals(aRaw, uint32(stride))
		bv := fuzzVals(bRaw, uint32(stride)%3)
		want := refIntersect(av, bv)
		dst := make([]uint32, min(len(av), len(bv)))
		if got := dst[:set.IntersectSorted(dst, av, bv)]; !slices.Equal(got, want) {
			t.Fatalf("IntersectSorted: got %v, want %v", got, want)
		}
		if got := dst[:set.IntersectSorted(dst, bv, av)]; !slices.Equal(got, want) {
			t.Fatalf("IntersectSorted(rev): got %v, want %v", got, want)
		}
		// Marks: mark one side, probe the other, both ways round, through one
		// reused bitmap — each Mark follows a Clear of the previous marks, so
		// a word a stale mark left behind shows. The stride byte also picks a
		// shift that moves the first value off a multiple of 64, and a cap
		// that some ranges exceed: Mark must refuse exactly those.
		shift := uint32(stride) * 7
		as, bs := make([]uint32, len(av)), make([]uint32, len(bv))
		for i, v := range av {
			as[i] = v + shift
		}
		for i, v := range bv {
			bs[i] = v + shift
		}
		shifted := refIntersect(as, bs)
		maxWords := 1 + int(stride)*64
		var m set.Marks
		for _, c := range []struct{ marked, probed, want []uint32 }{
			{av, bv, want}, {bv, av, want}, {as, bs, shifted}, {bs, as, shifted},
		} {
			marked := c.marked
			if len(marked) == 0 {
				continue
			}
			fits := int((marked[len(marked)-1]-marked[0]&^63)/64) < maxWords
			if got := m.Mark(marked, maxWords); got != fits {
				t.Fatalf("Mark(%d values from %d to %d, cap %d words) = %v, want %v", len(marked), marked[0], marked[len(marked)-1], maxWords, got, fits)
			}
			if fits {
				out := make([]uint32, len(c.probed))
				if got := out[:m.Probe(out, c.probed)]; !slices.Equal(got, c.want) {
					t.Fatalf("Marks.Probe: got %v, want %v", got, c.want)
				}
			}
			m.Clear()
			if !m.IsClear() {
				t.Fatal("Marks.Clear left words set")
			}
		}
		policies := []set.Policy{set.PolicyAuto, set.PolicyUintOnly, set.PolicyAdaptive}
		var sc set.Scratch
		for _, pa := range policies {
			for _, pb := range policies {
				a := set.FromSorted(append([]uint32(nil), av...), pa)
				b := set.FromSorted(append([]uint32(nil), bv...), pb)
				sameVals(t, "Intersect", set.Intersect(a, b), want)
				sameVals(t, "Intersect(rev)", set.Intersect(b, a), want)
				sameVals(t, "IntersectInto", sc.IntersectInto(a, b), want)
				out := make([]uint32, len(av))
				if got := out[:b.Probe(out, av)]; !slices.Equal(got, want) {
					t.Fatalf("Set.Probe (%v): got %v, want %v", b.Layout(), got, want)
				}
				sameVals(t, "IntersectValues",
					set.FromSorted(set.IntersectValues(nil, a, b), set.PolicyAuto), want)
				// The many-way fold exercises the ping-pong buffers: the
				// second step consumes the first step's scratch output while
				// writing the other buffer.
				sameVals(t, "IntersectMany", set.IntersectMany([]*set.Set{a, b, a}), want)
				got := sc.IntersectMany([]*set.Set{a, b, a, b})
				sameVals(t, "Scratch.IntersectMany", got, want)
			}
		}
	})
}

// be16 encodes vals as fuzzVals reads them at stride 0: two bytes each,
// high byte first.
func be16(vals ...uint16) []byte {
	out := make([]byte, 0, 2*len(vals))
	for _, v := range vals {
		out = append(out, byte(v>>8), byte(v))
	}
	return out
}

// skewedSeed encodes n values for fuzzVals: hits, then values spread too
// thinly for any policy to lay them out as a bitset.
func skewedSeed(n int, hits ...uint16) []byte {
	vals := append([]uint16(nil), hits...)
	for i := 0; len(vals) < n; i++ {
		vals = append(vals, 2000+uint16(i)*1000)
	}
	return be16(vals...)
}

// FuzzSeekGE checks the iterator's leapfrog contract on both layouts
// against a linear-scan reference, including the rank-directory path (the
// directory only builds at uintDirMinCard=2048 values, so the harness
// optionally inflates the set past that threshold).
func FuzzSeekGE(f *testing.F) {
	f.Add([]byte{0, 1, 0, 50, 1, 0}, []byte{0, 0, 0, 51, 2, 0}, false)
	f.Add([]byte{0, 9, 3, 1}, []byte{0, 9, 0, 10}, true)
	f.Fuzz(func(t *testing.T, raw, probeRaw []byte, big bool) {
		vals := fuzzVals(raw, 2)
		if big {
			// Force the seek directory: extend the set beyond the directory
			// threshold with a deterministic sparse tail. The fuzz-chosen
			// prefix still controls the interesting low-value structure.
			base := uint32(1 << 20)
			for i := 0; i < 2100; i++ {
				vals = append(vals, base+uint32(i)*37)
			}
		}
		probes := fuzzVals(probeRaw, 1)
		for _, policy := range []set.Policy{set.PolicyAuto, set.PolicyUintOnly, set.PolicyAdaptive} {
			s := set.FromSorted(append([]uint32(nil), vals...), policy)
			var it set.Iter
			it.Reset(s)
			for _, p := range probes {
				// Reference: first value ≥ p, found by scan.
				idx := sort.Search(len(vals), func(i int) bool { return vals[i] >= p })
				ok := it.SeekGE(p)
				if idx == len(vals) {
					if ok {
						t.Fatalf("policy %v: SeekGE(%d) = true at %d, want exhausted", policy, p, it.Cur())
					}
					break // iterator exhausted; later (larger) probes also miss
				}
				if !ok || it.Cur() != vals[idx] {
					t.Fatalf("policy %v: SeekGE(%d) = %v cur=%d, want %d", policy, p, ok, it.Cur(), vals[idx])
				}
				if it.Pos() != idx {
					t.Fatalf("policy %v: SeekGE(%d) pos=%d, want %d", policy, p, it.Pos(), idx)
				}
			}
		}
	})
}
