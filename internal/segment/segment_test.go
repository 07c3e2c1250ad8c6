package segment

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
)

func lubmStore(tb testing.TB, universities int) *store.Store {
	tb.Helper()
	b := store.NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: universities, Seed: 7}, b.Add)
	return b.Build()
}

func writeSegment(tb testing.TB, st *store.Store) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "base.seg")
	if err := Write(path, st); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	return path
}

// TestRoundTripLUBM writes a real LUBM store and checks the loaded segment
// is observationally identical: dictionary, triple table, per-relation
// columns, statistics, and full SO/OS trie contents.
func TestRoundTripLUBM(t *testing.T) {
	st := lubmStore(t, 1)
	path := writeSegment(t, st)

	l, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	got := l.Store

	if got.NumTriples() != st.NumTriples() {
		t.Fatalf("NumTriples = %d, want %d", got.NumTriples(), st.NumTriples())
	}
	if got.Dict().Size() != st.Dict().Size() {
		t.Fatalf("dict size = %d, want %d", got.Dict().Size(), st.Dict().Size())
	}
	for id := 0; id < st.Dict().Size(); id++ {
		if a, b := got.Dict().Decode(uint32(id)), st.Dict().Decode(uint32(id)); a != b {
			t.Fatalf("term %d decodes to %v, want %v", id, a, b)
		}
	}
	if !reflect.DeepEqual(slices.Collect(got.All()), slices.Collect(st.All())) {
		t.Fatal("triples differ")
	}
	if !reflect.DeepEqual(got.Predicates(), st.Predicates()) {
		t.Fatalf("predicates differ: %v vs %v", got.Predicates(), st.Predicates())
	}
	for _, p := range st.Predicates() {
		want, have := st.Relation(p), got.Relation(p)
		if !reflect.DeepEqual(have.S, want.S) || !reflect.DeepEqual(have.O, want.O) {
			t.Fatalf("relation %d columns differ", p)
		}
		ws, hs := st.Stats(p), got.Stats(p)
		if ws != hs {
			t.Fatalf("relation %d stats = %+v, want %+v", p, hs, ws)
		}
		// Tries must enumerate identical tuples. These are the prebuilt
		// (mmap-backed) tries on the loaded side.
		if !reflect.DeepEqual(have.TrieSO(set.PolicyAuto).Rows(), want.TrieSO(set.PolicyAuto).Rows()) {
			t.Fatalf("relation %d SO trie differs", p)
		}
		if !reflect.DeepEqual(have.TrieOS(set.PolicyAuto).Rows(), want.TrieOS(set.PolicyAuto).Rows()) {
			t.Fatalf("relation %d OS trie differs", p)
		}
	}
	if l.Bytes <= 0 {
		t.Fatalf("Bytes = %d", l.Bytes)
	}
}

// TestTrieLookupOverMapping drives point lookups (Rank/Select machinery,
// including bitset rank directories loaded verbatim) through a mapped trie.
func TestTrieLookupOverMapping(t *testing.T) {
	st := lubmStore(t, 1)
	path := writeSegment(t, st)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for _, p := range st.Predicates() {
		want := st.Relation(p)
		have := l.Store.Relation(p)
		wt, ht := want.TrieSO(set.PolicyAuto), have.TrieSO(set.PolicyAuto)
		rows := wt.Rows()
		step := len(rows)/50 + 1
		for i := 0; i < len(rows); i += step {
			if _, ok := ht.Lookup(rows[i]...); !ok {
				t.Fatalf("relation %d: tuple %v missing from mapped trie", p, rows[i])
			}
		}
		if n, ok := ht.Lookup(rows[0][0]); !ok || n.Set().Len() != func() int {
			m, _ := wt.Lookup(rows[0][0])
			return m.Set().Len()
		}() {
			t.Fatalf("relation %d: child set mismatch at subject %d", p, rows[0][0])
		}
	}
}

func TestEmptyStore(t *testing.T) {
	st := store.FromTriples(nil)
	path := writeSegment(t, st)
	l, err := Open(path)
	if err != nil {
		t.Fatalf("Open of empty segment: %v", err)
	}
	defer l.Close()
	if l.Store.NumTriples() != 0 || l.Store.Dict().Size() != 0 {
		t.Fatalf("empty store loaded as %v", l.Store)
	}
}

func TestSmallMixedTerms(t *testing.T) {
	ts := []rdf.Triple{
		{S: rdf.NewIRI("s1"), P: rdf.NewIRI("p"), O: rdf.NewLangLiteral("hi", "en")},
		{S: rdf.NewBlank("b"), P: rdf.NewIRI("p"), O: rdf.NewTypedLiteral("1", rdf.XSDString)},
		{S: rdf.NewIRI("s1"), P: rdf.NewIRI("q"), O: rdf.NewLiteral("plain")},
	}
	st := store.FromTriples(ts)
	path := writeSegment(t, st)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []string
	for tr := range l.Store.All() {
		got = append(got, rdf.Triple{
			S: l.Store.Dict().Decode(tr.S),
			P: l.Store.Dict().Decode(tr.P),
			O: l.Store.Dict().Decode(tr.O),
		}.String())
	}
	var want []string
	for _, tr := range ts {
		want = append(want, tr.String())
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded triples differ:\ngot  %v\nwant %v", got, want)
	}
}

// TestCorruptionDetected flips one payload byte; Open must refuse the file.
func TestCorruptionDetected(t *testing.T) {
	st := lubmStore(t, 1)
	path := writeSegment(t, st)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(path); err == nil {
		l.Close()
		t.Fatal("corrupted segment accepted")
	}
}

func TestTruncationDetected(t *testing.T) {
	st := lubmStore(t, 1)
	path := writeSegment(t, st)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(path); err == nil {
		l.Close()
		t.Fatal("truncated segment accepted")
	}
}

func TestBadMagicDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.seg")
	if err := os.WriteFile(path, []byte("<http://a> <http://p> <http://b> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(path); err == nil {
		l.Close()
		t.Fatal("non-segment file accepted")
	}
}
