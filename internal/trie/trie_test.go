package trie

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/set"
)

func TestBuildSimple(t *testing.T) {
	// Figure 1's suborganizationOf example after dictionary encoding:
	// subject object pairs (0,3), (0,1), (2,1), keys University0=0,
	// Department0=1, Department1=2(sic: figure numbers them 0..3).
	rows := [][]uint32{{0, 3}, {0, 1}, {2, 1}}
	tr := BuildFromRows(rows, 2, set.PolicyAuto)
	if tr.Arity() != 2 || tr.Len() != 3 {
		t.Fatalf("arity/len = %d/%d", tr.Arity(), tr.Len())
	}
	want := [][]uint32{{0, 1}, {0, 3}, {2, 1}}
	if got := tr.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("Rows = %v, want %v", got, want)
	}
	if got := tr.Root().Set().Values(); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Errorf("root set = %v", got)
	}
}

func TestBuildCollapsesDuplicates(t *testing.T) {
	rows := [][]uint32{{1, 2}, {1, 2}, {1, 2}, {3, 4}}
	tr := BuildFromRows(rows, 2, set.PolicyAuto)
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestEmptyTrie(t *testing.T) {
	tr := BuildFromRows(nil, 2, set.PolicyAuto)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Root().Set().Len() != 0 {
		t.Errorf("empty trie root set non-empty")
	}
	tr.Each(func([]uint32) bool { t.Error("Each on empty trie"); return true })
	if _, ok := tr.Lookup(5); ok {
		t.Errorf("Lookup on empty trie reported present")
	}
}

func TestUnaryTrie(t *testing.T) {
	tr := BuildFromColumns([][]uint32{{5, 3, 5, 1}}, set.PolicyAuto)
	if tr.Arity() != 1 || tr.Len() != 3 {
		t.Fatalf("arity/len = %d/%d", tr.Arity(), tr.Len())
	}
	if got := tr.Rows(); !reflect.DeepEqual(got, [][]uint32{{1}, {3}, {5}}) {
		t.Errorf("Rows = %v", got)
	}
	if !tr.Root().IsLeaf() {
		t.Errorf("unary trie root should be leaf")
	}
}

func TestTernaryTrieLookup(t *testing.T) {
	rows := [][]uint32{
		{1, 10, 100},
		{1, 10, 101},
		{1, 11, 100},
		{2, 10, 100},
	}
	tr := BuildFromRows(rows, 3, set.PolicyAuto)
	n, ok := tr.Lookup(1, 10)
	if !ok {
		t.Fatalf("Lookup(1,10) absent")
	}
	if got := n.Set().Values(); !reflect.DeepEqual(got, []uint32{100, 101}) {
		t.Errorf("third level = %v", got)
	}
	if _, ok := tr.Lookup(1, 12); ok {
		t.Errorf("Lookup(1,12) present")
	}
	if _, ok := tr.Lookup(1, 10, 101); !ok {
		t.Errorf("full-tuple lookup failed")
	}
	if _, ok := tr.Lookup(1, 10, 99); ok {
		t.Errorf("absent tuple reported present")
	}
	if n, ok := tr.Lookup(); !ok || n != tr.Root() {
		t.Errorf("empty prefix lookup should return root")
	}
}

func TestLookupPanicsOnLongPrefix(t *testing.T) {
	tr := BuildFromRows([][]uint32{{1, 2}}, 2, set.PolicyAuto)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	tr.Lookup(1, 2, 3)
}

func TestChildPanicsOnLeaf(t *testing.T) {
	tr := BuildFromColumns([][]uint32{{1}}, set.PolicyAuto)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	tr.Root().Child(0)
}

func TestRaggedColumnsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	BuildFromColumns([][]uint32{{1, 2}, {3}}, set.PolicyAuto)
}

func TestZeroColumnsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	BuildFromColumns(nil, set.PolicyAuto)
}

func TestBadRowArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	BuildFromRows([][]uint32{{1, 2, 3}}, 2, set.PolicyAuto)
}

func TestEachEarlyStop(t *testing.T) {
	rows := [][]uint32{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	tr := BuildFromRows(rows, 2, set.PolicyAuto)
	count := 0
	tr.Each(func([]uint32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestChildByValueOnLeaf(t *testing.T) {
	tr := BuildFromColumns([][]uint32{{7}}, set.PolicyAuto)
	n, ok := tr.Root().ChildByValue(7)
	if !ok || n != (Node{}) {
		t.Errorf("leaf ChildByValue = %v,%v", n, ok)
	}
	if _, ok := tr.Root().ChildByValue(8); ok {
		t.Errorf("absent value reported present")
	}
}

func TestDenseLevelsUseBitsets(t *testing.T) {
	// 1000 consecutive subjects: first level should be a bitset under auto.
	rows := make([][]uint32, 1000)
	for i := range rows {
		rows[i] = []uint32{uint32(i), uint32(i * 1000)}
	}
	auto := BuildFromRows(rows, 2, set.PolicyAuto)
	if auto.Root().Set().Layout() != set.Bitset {
		t.Errorf("dense first level layout = %v, want bitset", auto.Root().Set().Layout())
	}
	forced := BuildFromRows(rows, 2, set.PolicyUintOnly)
	if forced.Root().Set().Layout() != set.UintArray {
		t.Errorf("PolicyUintOnly produced %v", forced.Root().Set().Layout())
	}
	if forced.MemoryBytes() <= 0 || auto.MemoryBytes() <= 0 {
		t.Errorf("MemoryBytes should be positive")
	}
}

// TestMemoryBytesCountsSetHeaders pins the per-node header charge to the
// real size of a set.Set: 120 bytes on a 64-bit platform since the uint
// seek directory joined the header (an older constant said 88).
func TestMemoryBytesCountsSetHeaders(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && setHeaderBytes != 120 {
		t.Fatalf("setHeaderBytes = %d, want 120 on a 64-bit platform", setHeaderBytes)
	}
	// Level 0 is one node {0, 2}; level 1 is two nodes {1, 3} and {1}.
	tr := BuildFromRows([][]uint32{{0, 3}, {0, 1}, {2, 1}}, 2, set.PolicyUintOnly)
	vals, starts, headers := 2+3, 2+3, 1+2
	if got, want := tr.MemoryBytes(), 4*vals+4*starts+setHeaderBytes*headers; got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestFromLevelsRejectsOffsetStart: Node.UintValues indexes a level's
// value arena by its CSR offsets, so a loaded level whose offsets do not
// begin at 0 is refused instead of read from the wrong place.
func TestFromLevelsRejectsOffsetStart(t *testing.T) {
	tr := BuildFromRows([][]uint32{{0, 3}, {0, 1}, {2, 1}}, 2, set.PolicyUintOnly)
	levels := tr.Export()
	if _, err := FromLevels(tr.Len(), levels); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	shifted := make([]int32, len(levels[1].Start))
	for i, s := range levels[1].Start {
		shifted[i] = s + 1
	}
	levels[1].Start = shifted
	if _, err := FromLevels(tr.Len(), levels); err == nil {
		t.Fatal("FromLevels accepted a start arena beginning at 1")
	}
}

// TestUintValuesMatchesSet checks Node.UintValues against the node's set
// on every node of random tries under each policy: it answers exactly on
// the levels that hold no bitset node, and then with the set's members.
func TestUintValuesMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var levels [2]int // levels without, with a bitset node
	for trial := 0; trial < 30; trial++ {
		rows := make([][]uint32, 1+rng.Intn(3000))
		span := uint32(50 + rng.Intn(5000))
		for i := range rows {
			rows[i] = []uint32{uint32(rng.Intn(8)), rng.Uint32() % span, rng.Uint32() % span}
		}
		for _, policy := range []set.Policy{set.PolicyAuto, set.PolicyUintOnly, set.PolicyAdaptive} {
			tr := BuildFromRows(rows, 3, policy)
			for l := range tr.levels {
				lv := &tr.levels[l]
				hasBitset := false
				for i := range lv.sets {
					hasBitset = hasBitset || lv.sets[i].Layout() == set.Bitset
				}
				if hasBitset {
					levels[1]++
				} else {
					levels[0]++
				}
				for i := range lv.sets {
					n := Node{t: tr, level: int32(l), node: int32(i)}
					vals, ok := n.UintValues()
					if ok == hasBitset {
						t.Fatalf("policy %d level %d: UintValues ok=%v on a level with bitsets=%v", policy, l, ok, hasBitset)
					}
					if ok && !reflect.DeepEqual(vals, n.Set().AppendValues(nil)) {
						t.Fatalf("policy %d level %d node %d: UintValues = %v, want %v", policy, l, i, vals, n.Set().AppendValues(nil))
					}
				}
			}
		}
	}
	if levels[0] == 0 || levels[1] == 0 {
		t.Fatalf("levels without/with bitset nodes: %v; the trials cover one case only", levels)
	}
}

func TestSubView(t *testing.T) {
	rows := [][]uint32{
		{1, 10, 100},
		{1, 10, 101},
		{1, 11, 100},
		{2, 10, 100},
	}
	tr := BuildFromRows(rows, 3, set.PolicyAuto)
	n, ok := tr.Lookup(1)
	if !ok {
		t.Fatal("Lookup(1) failed")
	}
	view := Sub(n, 2)
	if view.Arity() != 2 || view.Len() != -1 {
		t.Errorf("view arity/len = %d/%d", view.Arity(), view.Len())
	}
	want := [][]uint32{{10, 100}, {10, 101}, {11, 100}}
	if got := view.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("view rows = %v, want %v", got, want)
	}
	if _, ok := view.Lookup(10, 101); !ok {
		t.Errorf("view lookup failed")
	}
	if _, ok := view.Lookup(12); ok {
		t.Errorf("view lookup found absent value")
	}
}

// reference: sort+dedup rows lexicographically.
func refRows(rows [][]uint32) [][]uint32 {
	cp := make([][]uint32, len(rows))
	for i, r := range rows {
		cp[i] = append([]uint32(nil), r...)
	}
	sort.Slice(cp, func(a, b int) bool {
		for k := range cp[a] {
			if cp[a][k] != cp[b][k] {
				return cp[a][k] < cp[b][k]
			}
		}
		return false
	})
	out := cp[:0]
	for i, r := range cp {
		if i == 0 || !reflect.DeepEqual(r, out[len(out)-1]) {
			out = append(out, r)
		}
	}
	return out
}

func TestPropertyBuildEnumerateRoundTrip(t *testing.T) {
	f := func(raw []uint32, aritySeed uint8) bool {
		arity := int(aritySeed%3) + 1
		n := len(raw) / arity
		rows := make([][]uint32, n)
		for i := 0; i < n; i++ {
			row := make([]uint32, arity)
			for c := 0; c < arity; c++ {
				row[c] = raw[i*arity+c] % 64 // small domain forces duplicates
			}
			rows[i] = row
		}
		want := refRows(rows)
		tr := BuildFromRows(rows, arity, set.PolicyAuto)
		got := tr.Rows()
		if len(want) == 0 {
			return len(got) == 0 && tr.Len() == 0
		}
		return tr.Len() == len(want) && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLookupMatchesMembership(t *testing.T) {
	f := func(raw []uint32) bool {
		n := len(raw) / 2
		rows := make([][]uint32, n)
		present := map[[2]uint32]bool{}
		for i := 0; i < n; i++ {
			a, b := raw[i*2]%16, raw[i*2+1]%16
			rows[i] = []uint32{a, b}
			present[[2]uint32{a, b}] = true
		}
		tr := BuildFromRows(rows, 2, set.PolicyAuto)
		for a := uint32(0); a < 16; a++ {
			for b := uint32(0); b < 16; b++ {
				_, ok := tr.Lookup(a, b)
				if ok != present[[2]uint32{a, b}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- flat ≡ reference property suite ----------------------------------------

// randomCols generates arity columns of n rows over a bounded domain; small
// domains force duplicate prefixes (shared trie paths), larger ones force
// sparse sets.
func randomCols(rng *rand.Rand, n, arity int, domain uint32) [][]uint32 {
	cols := make([][]uint32, arity)
	for c := range cols {
		cols[c] = make([]uint32, n)
		for i := range cols[c] {
			cols[c][i] = rng.Uint32() % domain
		}
	}
	return cols
}

// checkFlatMatchesReference walks both representations and demands
// observational identity: tuple count, enumerated rows, per-path set layout
// and membership, Lookup outcomes, and Sub view rows.
func checkFlatMatchesReference(t *testing.T, cols [][]uint32, policy set.Policy) {
	t.Helper()
	arity := len(cols)
	flat := BuildFromColumns(cols, policy)
	ref := BuildReference(cols, policy)
	if flat.Len() != ref.Len() || flat.Arity() != ref.Arity() {
		t.Fatalf("len/arity: flat %d/%d, ref %d/%d", flat.Len(), flat.Arity(), ref.Len(), ref.Arity())
	}
	if !reflect.DeepEqual(flat.Rows(), ref.Rows()) {
		t.Fatalf("rows diverge:\nflat %v\nref  %v", flat.Rows(), ref.Rows())
	}
	// Walk every node pair: sets must match in membership AND layout (the
	// arena build must reproduce the layout optimizer's decisions exactly).
	var walk func(fn Node, rn *RefNode, path []uint32)
	walk = func(fn Node, rn *RefNode, path []uint32) {
		fs, rs := fn.Set(), rn.Set()
		if fs.Layout() != rs.Layout() {
			t.Fatalf("layout at %v: flat %v, ref %v", path, fs.Layout(), rs.Layout())
		}
		if !fs.Equal(rs) {
			t.Fatalf("set at %v: flat %v, ref %v", path, fs.Values(), rs.Values())
		}
		if fn.IsLeaf() != rn.IsLeaf() {
			t.Fatalf("leafness at %v", path)
		}
		if fn.IsLeaf() {
			return
		}
		vals := fs.Values()
		for i, v := range vals {
			walk(fn.Child(i), rn.Child(i), append(path, v))
		}
	}
	if flat.Len() > 0 || ref.Len() > 0 {
		walk(flat.Root(), ref.Root(), nil)
	}
	// Random and boundary lookups, full and partial prefixes.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		k := rng.Intn(arity + 1)
		prefix := make([]uint32, k)
		for i := range prefix {
			prefix[i] = rng.Uint32() % 70
		}
		fn, fok := flat.Lookup(prefix...)
		rn, rok := ref.Lookup(prefix...)
		if fok != rok {
			t.Fatalf("Lookup(%v): flat %v, ref %v", prefix, fok, rok)
		}
		if fok && k < arity {
			// Compare the reached nodes' sets and, below the top, Sub views.
			if !fn.Set().Equal(rn.Set()) {
				t.Fatalf("Lookup(%v) sets diverge", prefix)
			}
			if k > 0 {
				view := Sub(fn, arity-k)
				if view.Len() != -1 {
					t.Fatalf("view Len = %d, want -1", view.Len())
				}
				want := refSubRows(rn, arity-k)
				if !reflect.DeepEqual(view.Rows(), want) {
					t.Fatalf("Sub(%v) rows diverge", prefix)
				}
			}
		}
	}
}

// refSubRows enumerates the subtree below a reference node.
func refSubRows(n *RefNode, arity int) [][]uint32 {
	view := &RefTrie{arity: arity, tuples: -1, root: n}
	return view.Rows()
}

func TestFlatMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		arity := 1 + rng.Intn(3)
		n := rng.Intn(400)
		// Alternate dense and sparse domains so both layouts appear.
		domain := uint32(8 + rng.Intn(64))
		if trial%3 == 0 {
			domain = 100000
		}
		cols := randomCols(rng, n, arity, domain)
		for _, policy := range []set.Policy{set.PolicyAuto, set.PolicyUintOnly} {
			checkFlatMatchesReference(t, cols, policy)
		}
	}
}

func TestFlatMatchesReferenceQuick(t *testing.T) {
	f := func(raw []uint32, aritySeed uint8) bool {
		arity := int(aritySeed%3) + 1
		n := len(raw) / arity
		cols := make([][]uint32, arity)
		for c := range cols {
			cols[c] = make([]uint32, n)
			for i := 0; i < n; i++ {
				cols[c][i] = raw[i*arity+c] % 512
			}
		}
		flat := BuildFromColumns(cols, set.PolicyAuto)
		ref := BuildReference(cols, set.PolicyAuto)
		return flat.Len() == ref.Len() && reflect.DeepEqual(flat.Rows(), ref.Rows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEachEarlyStopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cols := randomCols(rng, 300, 3, 16)
	flat := BuildFromColumns(cols, set.PolicyAuto)
	ref := BuildReference(cols, set.PolicyAuto)
	for _, stop := range []int{1, 7, flat.Len() / 2, flat.Len()} {
		var got, want [][]uint32
		count := 0
		flat.Each(func(tu []uint32) bool {
			got = append(got, append([]uint32(nil), tu...))
			count++
			return count < stop
		})
		count = 0
		ref.Each(func(tu []uint32) bool {
			want = append(want, append([]uint32(nil), tu...))
			count++
			return count < stop
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("early stop at %d diverges", stop)
		}
	}
}

// --- benchmarks --------------------------------------------------------------

func benchCols(n int, domain uint32) [][]uint32 {
	rng := rand.New(rand.NewSource(1))
	cols := make([][]uint32, 2)
	for c := range cols {
		cols[c] = make([]uint32, n)
		for i := range cols[c] {
			cols[c][i] = rng.Uint32() % domain
		}
	}
	return cols
}

// BenchmarkTrieBuildFlat measures the arena builder — the cost that sits
// directly under live.Compact() and shard.Partition.
func BenchmarkTrieBuildFlat(b *testing.B) {
	cols := benchCols(100000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFromColumns(cols, set.PolicyAuto)
	}
}

// BenchmarkTrieBuildPointer measures the retired pointer-per-node builder
// on identical input, so the flat/pointer ratio can be re-measured with
// -bench TrieBuild.
func BenchmarkTrieBuildPointer(b *testing.B) {
	cols := benchCols(100000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildReference(cols, set.PolicyAuto)
	}
}

func BenchmarkBuildBinary(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100000
	rows := make([][]uint32, n)
	for i := range rows {
		rows[i] = []uint32{rng.Uint32() % 10000, rng.Uint32() % 10000}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFromRows(rows, 2, set.PolicyAuto)
	}
}

func BenchmarkLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100000
	rows := make([][]uint32, n)
	for i := range rows {
		rows[i] = []uint32{rng.Uint32() % 10000, rng.Uint32() % 10000}
	}
	tr := BuildFromRows(rows, 2, set.PolicyAuto)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(uint32(i)%10000, uint32(i*7)%10000)
	}
}
