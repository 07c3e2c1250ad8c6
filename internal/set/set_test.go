package set

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func sorted(vals ...uint32) []uint32 {
	cp := append([]uint32(nil), vals...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	if len(cp) == 0 {
		return cp
	}
	return dedupSorted(cp)
}

func TestLayoutDecision(t *testing.T) {
	// Dense: 100 consecutive values => bitset under auto policy.
	dense := make([]uint32, 100)
	for i := range dense {
		dense[i] = uint32(1000 + i)
	}
	if got := FromSorted(dense, PolicyAuto).Layout(); got != Bitset {
		t.Errorf("dense set layout = %v, want Bitset", got)
	}
	// Sparse: values 256 apart fail the 1/256 rule (density exactly 1/256
	// over the span is NOT more than one in 256).
	sparse := make([]uint32, 100)
	for i := range sparse {
		sparse[i] = uint32(i * 300)
	}
	if got := FromSorted(sparse, PolicyAuto).Layout(); got != UintArray {
		t.Errorf("sparse set layout = %v, want UintArray", got)
	}
	// UintOnly policy forces arrays even for dense data.
	if got := FromSorted(dense, PolicyUintOnly).Layout(); got != UintArray {
		t.Errorf("PolicyUintOnly layout = %v, want UintArray", got)
	}
}

func TestDensityBoundary(t *testing.T) {
	// card * 256 > span required for bitset. Single element: 1*256 > 1.
	if got := FromSorted([]uint32{42}, PolicyAuto).Layout(); got != Bitset {
		t.Errorf("singleton layout = %v, want Bitset (trivially dense)", got)
	}
	// Two elements spanning exactly 512: 2*256 = 512, not > 512 => uint.
	if got := FromSorted([]uint32{0, 511}, PolicyAuto).Layout(); got != UintArray {
		t.Errorf("boundary set layout = %v, want UintArray", got)
	}
	// Two elements spanning 511: 2*256 = 512 > 511 => bitset.
	if got := FromSorted([]uint32{0, 510}, PolicyAuto).Layout(); got != Bitset {
		t.Errorf("just-dense set layout = %v, want Bitset", got)
	}
}

func TestEmptySet(t *testing.T) {
	if !Empty.IsEmpty() || Empty.Len() != 0 {
		t.Fatalf("Empty set misbehaves")
	}
	if FromSorted(nil, PolicyAuto) != Empty {
		t.Errorf("FromSorted(nil) should return the Empty singleton")
	}
	if FromValues(nil, PolicyAuto) != Empty {
		t.Errorf("FromValues(nil) should return the Empty singleton")
	}
	if Empty.Contains(0) {
		t.Errorf("Empty.Contains(0) = true")
	}
	Empty.Iterate(func(int, uint32) bool { t.Error("Empty iterated"); return true })
}

func TestMinMaxPanics(t *testing.T) {
	for _, fn := range []func(){func() { Empty.Min() }, func() { Empty.Max() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFromValuesSortsAndDedups(t *testing.T) {
	in := []uint32{5, 3, 5, 9, 3, 1}
	s := FromValues(in, PolicyUintOnly)
	want := []uint32{1, 3, 5, 9}
	if !reflect.DeepEqual(s.Values(), want) {
		t.Errorf("Values = %v, want %v", s.Values(), want)
	}
	// Input must not be mutated.
	if !reflect.DeepEqual(in, []uint32{5, 3, 5, 9, 3, 1}) {
		t.Errorf("FromValues mutated its input: %v", in)
	}
}

func bothLayouts(t *testing.T, vals []uint32) []*Set {
	t.Helper()
	u := FromSorted(append([]uint32(nil), vals...), PolicyUintOnly)
	b := bitsetFromSorted(vals)
	if len(vals) > 0 && (u.Len() != len(vals) || b.Len() != len(vals)) {
		t.Fatalf("cardinality mismatch: %d %d vs %d", u.Len(), b.Len(), len(vals))
	}
	return []*Set{u, b}
}

func TestContainsRankSelectBothLayouts(t *testing.T) {
	vals := sorted(3, 64, 65, 127, 128, 1000, 1001, 5000)
	for _, s := range bothLayouts(t, vals) {
		for i, v := range vals {
			if !s.Contains(v) {
				t.Errorf("%v: Contains(%d) = false", s, v)
			}
			r, ok := s.Rank(v)
			if !ok || r != i {
				t.Errorf("%v: Rank(%d) = %d,%v want %d,true", s, v, r, ok, i)
			}
			if got := s.Select(i); got != v {
				t.Errorf("%v: Select(%d) = %d, want %d", s, i, got, v)
			}
		}
		for _, v := range []uint32{0, 4, 63, 129, 4999, 5001, 1 << 30} {
			if s.Contains(v) {
				t.Errorf("%v: Contains(%d) = true", s, v)
			}
			if _, ok := s.Rank(v); ok {
				t.Errorf("%v: Rank(%d) reported membership", s, v)
			}
		}
		// Rank of a non-member equals count of smaller members.
		r, _ := s.Rank(100)
		if r != 3 {
			t.Errorf("%v: Rank(100) = %d, want 3", s, r)
		}
		if s.Min() != 3 || s.Max() != 5000 {
			t.Errorf("%v: Min/Max = %d/%d", s, s.Min(), s.Max())
		}
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	s := FromSorted([]uint32{1, 2, 3}, PolicyUintOnly)
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(%d) should panic", i)
				}
			}()
			s.Select(i)
		}()
	}
}

func TestIterateEarlyStop(t *testing.T) {
	for _, s := range bothLayouts(t, []uint32{1, 2, 3, 4, 5}) {
		count := 0
		s.Iterate(func(i int, v uint32) bool {
			count++
			return count < 3
		})
		if count != 3 {
			t.Errorf("%v: early stop visited %d", s, count)
		}
	}
}

func TestIterateIndices(t *testing.T) {
	vals := []uint32{10, 70, 130, 190, 700}
	for _, s := range bothLayouts(t, vals) {
		var got []uint32
		s.Iterate(func(i int, v uint32) bool {
			if i != len(got) {
				t.Errorf("%v: index %d out of sequence", s, i)
			}
			got = append(got, v)
			return true
		})
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("%v: iterate = %v, want %v", s, got, vals)
		}
	}
}

func TestEqualAcrossLayouts(t *testing.T) {
	vals := sorted(1, 2, 3, 100, 200)
	ls := bothLayouts(t, vals)
	if !ls[0].Equal(ls[1]) || !ls[1].Equal(ls[0]) {
		t.Errorf("layouts of identical membership not Equal")
	}
	other := FromSorted([]uint32{1, 2, 3, 100, 201}, PolicyUintOnly)
	if ls[0].Equal(other) {
		t.Errorf("different sets reported Equal")
	}
	shorter := FromSorted([]uint32{1, 2}, PolicyUintOnly)
	if ls[0].Equal(shorter) {
		t.Errorf("different cardinalities reported Equal")
	}
}

func refIntersect(a, b []uint32) []uint32 {
	inB := map[uint32]bool{}
	for _, v := range b {
		inB[v] = true
	}
	out := []uint32{}
	for _, v := range a {
		if inB[v] {
			out = append(out, v)
		}
	}
	return out
}

func TestIntersectAllLayoutCombos(t *testing.T) {
	a := sorted(1, 5, 64, 65, 100, 1000, 2000)
	b := sorted(5, 64, 99, 100, 2000, 3000)
	want := refIntersect(a, b)
	for _, sa := range bothLayouts(t, a) {
		for _, sb := range bothLayouts(t, b) {
			got := Intersect(sa, sb).Values()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Intersect(%v,%v) = %v, want %v", sa, sb, got, want)
			}
			gotVals := IntersectValues(nil, sa, sb)
			if !reflect.DeepEqual(gotVals, want) {
				t.Errorf("IntersectValues(%v,%v) = %v, want %v", sa, sb, gotVals, want)
			}
		}
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a := sorted(1, 2, 3)
	b := sorted(1000, 2000, 3000)
	for _, sa := range bothLayouts(t, a) {
		for _, sb := range bothLayouts(t, b) {
			if got := Intersect(sa, sb); !got.IsEmpty() {
				t.Errorf("disjoint intersection non-empty: %v", got.Values())
			}
		}
	}
}

func TestIntersectWithEmpty(t *testing.T) {
	s := FromSorted([]uint32{1, 2, 3}, PolicyAuto)
	if !Intersect(s, Empty).IsEmpty() || !Intersect(Empty, s).IsEmpty() {
		t.Errorf("intersection with empty not empty")
	}
	if got := IntersectValues(nil, s, Empty); len(got) != 0 {
		t.Errorf("IntersectValues with empty = %v", got)
	}
}

func TestGallopPath(t *testing.T) {
	// Force the galloping path: small has 3 members, large has 1000.
	large := make([]uint32, 1000)
	for i := range large {
		large[i] = uint32(i * 2)
	}
	small := []uint32{0, 998, 1998}
	dst := make([]uint32, len(small))
	got := dst[:intersectGallop(dst, small, large)]
	if !reflect.DeepEqual(got, []uint32{0, 998, 1998}) {
		t.Errorf("gallop = %v", got)
	}
	// Small with misses, including past the end of large.
	small2 := []uint32{1, 3, 1997, 1998, 5000}
	dst2 := make([]uint32, len(small2))
	got2 := dst2[:intersectGallop(dst2, small2, large)]
	if !reflect.DeepEqual(got2, []uint32{1998}) {
		t.Errorf("gallop with misses = %v", got2)
	}
	// Via the public API: ratio 1000/3 ≥ gallopRatio triggers gallop.
	sa := FromSorted(small, PolicyUintOnly)
	sb := FromSorted(large, PolicyUintOnly)
	if !reflect.DeepEqual(Intersect(sa, sb).Values(), []uint32{0, 998, 1998}) {
		t.Errorf("public gallop mismatch")
	}
}

// TestSkewRulesAtTheirRatios intersects a uint array with a bitset at
// 15, 16 and 17 times the bitset's members — either side of bitGallopRatio,
// where intersectUintBit stops probing the array and gallops it from the
// bitset's decoded members, in place in dst — and probes a Marks with
// 31, 32 and 33 times its marked values, either side of gallopRatio. Every
// entry that reaches the kernels must agree with the reference, through a
// dst no longer than the contract asks.
func TestSkewRulesAtTheirRatios(t *testing.T) {
	// skewed returns n sorted values of which exactly hits are members of
	// small: a few below small's range, the hits, the rest above it.
	skewed := func(small []uint32, n, hits int) []uint32 {
		vals := []uint32{3, 500}
		for i := 0; i < hits; i++ {
			vals = append(vals, small[i*len(small)/hits])
		}
		for i := 0; len(vals) < n; i++ {
			vals = append(vals, 5000+uint32(i)*53)
		}
		return vals
	}
	// Eight members over three words: a bitset under PolicyAuto.
	bits := []uint32{1000, 1001, 1040, 1070, 1100, 1130, 1160, 1190}
	bs := FromSorted(bits, PolicyAuto)
	if bs.Layout() != Bitset {
		t.Fatalf("the small side is a %v, want a bitset", bs.Layout())
	}
	for _, ratio := range []int{bitGallopRatio - 1, bitGallopRatio, bitGallopRatio + 1} {
		vals := skewed(bits, ratio*len(bits), 3)
		arr := FromSorted(vals, PolicyUintOnly)
		want := refIntersect(vals, bits)
		dst := make([]uint32, len(vals))
		if got := dst[:intersectUintBit(dst, vals, bs)]; !reflect.DeepEqual(got, want) {
			t.Errorf("%d×: intersectUintBit = %v, want %v", ratio, got, want)
		}
		if got := dst[:bs.Probe(dst, vals)]; !reflect.DeepEqual(got, want) {
			t.Errorf("%d×: Set.Probe = %v, want %v", ratio, got, want)
		}
		if got := IntersectValues(nil, bs, arr); !reflect.DeepEqual(got, want) {
			t.Errorf("%d×: IntersectValues = %v, want %v", ratio, got, want)
		}
		var sc Scratch
		if got := sc.IntersectInto(arr, bs).Values(); !reflect.DeepEqual(got, want) {
			t.Errorf("%d×: IntersectInto = %v, want %v", ratio, got, want)
		}
		if got := sc.IntersectMany([]*Set{bs, arr, bs}).Values(); !reflect.DeepEqual(got, want) {
			t.Errorf("%d×: IntersectMany = %v, want %v", ratio, got, want)
		}
	}
	marked := []uint32{1000, 1001, 1070, 1190}
	var m Marks
	for _, ratio := range []int{gallopRatio - 1, gallopRatio, gallopRatio + 1} {
		if !m.Mark(marked, 64) {
			t.Fatal("Mark refused four values in three words")
		}
		vals := skewed(marked, ratio*len(marked), 2)
		want := refIntersect(vals, marked)
		dst := make([]uint32, len(vals))
		if got := dst[:m.Probe(dst, vals)]; !reflect.DeepEqual(got, want) {
			t.Errorf("%d×: Marks.Probe = %v, want %v", ratio, got, want)
		}
		m.Clear()
	}
}

// TestMarksProbeGallopIsSublinear pins which way Marks.Probe gallops: from
// the few marked values through the long probed slice, so that the cost
// grows with the log of the slice's length. Four marks spread to the end
// of the range are probed by 2^10 values and by 2^20 over the same range;
// anything that walks the probed slice — a bit test per value, or a gallop
// from each value through the marks — costs about 1,024 times as much on
// the longer slice, the gallop from the marks a few times as much. Each
// side's time is the least of several runs, which scheduling noise can
// only lengthen.
func TestMarksProbeGallopIsSublinear(t *testing.T) {
	const shortLen, longLen, reps, runs, bound = 1 << 10, 1 << 20, 100, 9, 32
	long := make([]uint32, longLen)
	for i := range long {
		long[i] = 4 * uint32(i)
	}
	short := make([]uint32, shortLen)
	for i := range short {
		short[i] = long[i*(longLen/shortLen)]
	}
	marked := []uint32{long[longLen/4], long[longLen/2], long[3*longLen/4], short[shortLen-1]}
	var m Marks
	if !m.Mark(marked, longLen) {
		t.Fatal("Mark refused the marks")
	}
	dst := make([]uint32, longLen)
	best := func(vals []uint32, stopBelow time.Duration) time.Duration {
		least := time.Duration(math.MaxInt64)
		for range runs {
			start := time.Now()
			for range reps {
				if n := m.Probe(dst, vals); n != len(marked) {
					t.Fatalf("Marks.Probe found %d of the %d marks", n, len(marked))
				}
			}
			least = min(least, time.Since(start))
			if least < stopBelow {
				break
			}
		}
		return least
	}
	s := best(short, 0)
	l := best(long, bound*s)
	if l >= bound*s {
		t.Errorf("probing %d values took %v, %d values %v: at least %d times as long, want a gallop from the marks", longLen, l, shortLen, s, bound)
	}
	t.Logf("%d probes of %d values: %v; of %d values: %v", reps, longLen, l, shortLen, s)
}

func TestIntersectMany(t *testing.T) {
	a := FromSorted(sorted(1, 2, 3, 4, 5, 6), PolicyUintOnly)
	b := FromSorted(sorted(2, 4, 6, 8), PolicyUintOnly)
	c := FromSorted(sorted(4, 6, 10), PolicyUintOnly)
	got := IntersectMany([]*Set{a, b, c}).Values()
	if !reflect.DeepEqual(got, []uint32{4, 6}) {
		t.Errorf("IntersectMany = %v", got)
	}
	if IntersectMany(nil) != Empty {
		t.Errorf("IntersectMany(nil) != Empty")
	}
	if IntersectMany([]*Set{a}) != a {
		t.Errorf("IntersectMany singleton should be identity")
	}
	d := FromSorted([]uint32{99}, PolicyUintOnly)
	if !IntersectMany([]*Set{a, b, d}).IsEmpty() {
		t.Errorf("IntersectMany should be empty")
	}
}

func TestMemoryBytes(t *testing.T) {
	u := FromSorted([]uint32{1, 1000000}, PolicyUintOnly)
	if u.MemoryBytes() != 8 {
		t.Errorf("uint MemoryBytes = %d, want 8", u.MemoryBytes())
	}
	b := bitsetFromSorted([]uint32{0, 63})
	if b.MemoryBytes() != 12 { // 1 word + 1 rank entry
		t.Errorf("bitset MemoryBytes = %d, want 12", b.MemoryBytes())
	}
	if Empty.MemoryBytes() != 0 {
		t.Errorf("Empty.MemoryBytes = %d", Empty.MemoryBytes())
	}
}

func TestLayoutStrings(t *testing.T) {
	if UintArray.String() != "uint" || Bitset.String() != "bitset" {
		t.Errorf("layout strings wrong")
	}
	if Layout(9).String() != "Layout(9)" {
		t.Errorf("unknown layout string wrong")
	}
}

// --- property-based tests -------------------------------------------------

// genVals produces a bounded random value slice from quick's raw input.
func genVals(raw []uint32) []uint32 {
	out := make([]uint32, 0, len(raw))
	for _, v := range raw {
		out = append(out, v%4096) // bounded domain => collisions and density
	}
	return out
}

func TestPropertyMembershipMatchesReference(t *testing.T) {
	f := func(raw []uint32) bool {
		vals := genVals(raw)
		ref := map[uint32]bool{}
		for _, v := range vals {
			ref[v] = true
		}
		for _, policy := range []Policy{PolicyAuto, PolicyUintOnly} {
			s := FromValues(vals, policy)
			if s.Len() != len(ref) {
				return false
			}
			for v := uint32(0); v < 4096; v += 7 {
				if s.Contains(v) != ref[v] {
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

func TestPropertyIntersectionMatchesReference(t *testing.T) {
	f := func(rawA, rawB []uint32) bool {
		a, b := genVals(rawA), genVals(rawB)
		sa := FromValues(a, PolicyAuto)
		sb := FromValues(b, PolicyAuto)
		want := refIntersect(sa.Values(), sb.Values())
		got := Intersect(sa, sb).Values()
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIntersectionCommutes(t *testing.T) {
	f := func(rawA, rawB []uint32) bool {
		sa := FromValues(genVals(rawA), PolicyAuto)
		sb := FromValues(genVals(rawB), PolicyAuto)
		return reflect.DeepEqual(Intersect(sa, sb).Values(), Intersect(sb, sa).Values())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIntersectionAssociates(t *testing.T) {
	f := func(rawA, rawB, rawC []uint32) bool {
		sa := FromValues(genVals(rawA), PolicyAuto)
		sb := FromValues(genVals(rawB), PolicyAuto)
		sc := FromValues(genVals(rawC), PolicyAuto)
		left := Intersect(Intersect(sa, sb), sc).Values()
		right := Intersect(sa, Intersect(sb, sc)).Values()
		return reflect.DeepEqual(left, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRankSelectInverse(t *testing.T) {
	f := func(raw []uint32) bool {
		vals := genVals(raw)
		if len(vals) == 0 {
			return true
		}
		for _, policy := range []Policy{PolicyAuto, PolicyUintOnly} {
			s := FromValues(vals, policy)
			for i := 0; i < s.Len(); i++ {
				v := s.Select(i)
				r, ok := s.Rank(v)
				if !ok || r != i {
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

// --- randomized stress over layout boundaries ------------------------------

func TestRandomizedCrossLayoutIntersections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		n1, n2 := rng.Intn(500), rng.Intn(500)
		mod := uint32(rng.Intn(10000) + 1)
		a := make([]uint32, n1)
		for i := range a {
			a[i] = rng.Uint32() % mod
		}
		b := make([]uint32, n2)
		for i := range b {
			b[i] = rng.Uint32() % mod
		}
		sa := FromValues(a, PolicyAuto)
		sb := FromValues(b, PolicyUintOnly)
		want := refIntersect(sa.Values(), sb.Values())
		got := Intersect(sa, sb).Values()
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: got %v want %v", iter, got, want)
		}
	}
}
