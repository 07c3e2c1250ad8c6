package live_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/live"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func tr(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

// canonDecoded renders a result multiset with terms decoded, so results
// from stores with different dictionaries compare equal.
func canonDecoded(t *testing.T, res *engine.Result, d *dict.Dictionary) string {
	t.Helper()
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, id := range row {
			parts[i] = d.Decode(id).String()
		}
		lines = append(lines, strings.Join(parts, "\t"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// tripleSet is a test's own record of the dataset it built: the base
// triples, then every patch it applied, in order. Re-encoded into a fresh
// store (new dictionary, new id assignment) it is the "store rebuilt from
// scratch over the patched triple set" oracle, independent of how the live
// store materializes its overlay.
type tripleSet map[rdf.Triple]bool

func newTripleSet(base []rdf.Triple) tripleSet {
	s := make(tripleSet, len(base))
	for _, tr := range base {
		s[tr] = true
	}
	return s
}

// apply applies p to ls and records it in the set.
func (s tripleSet) apply(t *testing.T, ls *live.Store, p live.Patch) live.ApplyResult {
	t.Helper()
	res, err := ls.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Ops {
		if op.Delete {
			delete(s, op.Triple)
		} else {
			s[op.Triple] = true
		}
	}
	return res
}

// build re-encodes the set into a fresh store.
func (s tripleSet) build() *store.Store {
	b := store.NewBuilder()
	for tr := range s {
		b.Add(tr)
	}
	return b.Build()
}

// overlayEquals asserts that ls holds as many triples as applied and that
// querying it through every registered engine matches the naive oracle over
// applied rebuilt from scratch.
func overlayEquals(t *testing.T, ls *live.Store, applied tripleSet, queries ...string) {
	t.Helper()
	if n := ls.NumTriples(); n != len(applied) {
		t.Fatalf("overlay holds %d triples, the applied set %d", n, len(applied))
	}
	rebuilt := applied.build()
	oracle, err := engines.New("naive", rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	for qi, text := range queries {
		q := query.MustParseSPARQL(text)
		want, err := engine.Collect(oracle.Open(q, engine.ExecOpts{}))
		if err != nil {
			t.Fatalf("q%d oracle: %v", qi, err)
		}
		wantC := canonDecoded(t, want, rebuilt.Dict())
		for _, name := range engines.Names() {
			le, err := engines.NewLive(name, ls)
			if err != nil {
				t.Fatalf("NewLive(%s): %v", name, err)
			}
			got, err := engine.Collect(le.Open(q, engine.ExecOpts{}))
			if err != nil {
				t.Fatalf("q%d %s: %v", qi, name, err)
			}
			if gotC := canonDecoded(t, got, ls.Dict()); gotC != wantC {
				t.Errorf("q%d %s: overlay != rebuilt\n got (%d rows):\n%s\nwant (%d rows):\n%s",
					qi, name, got.Len(), gotC, want.Len(), wantC)
			}
		}
	}
}

func TestApplySemantics(t *testing.T) {
	base := store.FromTriples([]rdf.Triple{tr("a", "p", "b"), tr("b", "p", "c")})
	ls, err := live.NewStore(base, live.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Duplicate insert is a no-op.
	res, err := ls.Apply(live.InsertAll([]rdf.Triple{tr("a", "p", "b")}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || res.Noops != 1 {
		t.Fatalf("duplicate insert: %+v", res)
	}

	// Delete of an absent triple is a no-op and must not grow the dict.
	terms := ls.Dict().Size()
	res, err = ls.Apply(live.DeleteAll([]rdf.Triple{tr("zzz", "qqq", "www")}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 0 || res.Noops != 1 {
		t.Fatalf("delete absent: %+v", res)
	}
	if ls.Dict().Size() != terms {
		t.Fatalf("delete of absent triple grew the dictionary: %d -> %d", terms, ls.Dict().Size())
	}

	// Insert-then-delete in one batch nets to nothing.
	res, err = ls.Apply(live.Patch{Ops: []live.Op{
		{Triple: tr("n", "p", "n2")},
		{Delete: true, Triple: tr("n", "p", "n2")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 1 || res.DeltaInserts != 0 || res.DeltaTombstones != 0 {
		t.Fatalf("insert-then-delete: %+v", res)
	}
	if n := ls.NumTriples(); n != 2 {
		t.Fatalf("NumTriples = %d, want 2", n)
	}

	// Delete a base triple, then re-insert it: tombstone cleared.
	if _, err = ls.Apply(live.DeleteAll([]rdf.Triple{tr("a", "p", "b")})); err != nil {
		t.Fatal(err)
	}
	if ins, del := ls.DeltaSize(); ins != 0 || del != 1 {
		t.Fatalf("delta after delete: ins=%d del=%d", ins, del)
	}
	if n := ls.NumTriples(); n != 1 {
		t.Fatalf("NumTriples after delete = %d, want 1", n)
	}
	if _, err = ls.Apply(live.InsertAll([]rdf.Triple{tr("a", "p", "b")})); err != nil {
		t.Fatal(err)
	}
	if ins, del := ls.DeltaSize(); ins != 0 || del != 0 {
		t.Fatalf("delta after re-insert: ins=%d del=%d", ins, del)
	}

	// Epoch bumps on compaction only.
	if ls.Epoch() != 0 {
		t.Fatalf("epoch = %d before any compaction", ls.Epoch())
	}
	if _, err = ls.Insert([]rdf.Triple{tr("x", "p", "y")}); err != nil {
		t.Fatal(err)
	}
	st, err := ls.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Swapped || st.Epoch != 1 || ls.Epoch() != 1 {
		t.Fatalf("compact: %+v epoch=%d", st, ls.Epoch())
	}
	if ls.NumTriples() != 3 || ls.Base().NumTriples() != 3 {
		t.Fatalf("post-compact triples: overlay=%d base=%d, want 3/3", ls.NumTriples(), ls.Base().NumTriples())
	}
	// Empty delta: no swap, same epoch.
	st, err = ls.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Swapped || st.Epoch != 1 {
		t.Fatalf("empty compact: %+v", st)
	}
}

// TestPinsSurviveApply: a cursor opened before a patch must stay counted in
// PinnedReaders (pins are per base epoch, not per delta version).
func TestPinsSurviveApply(t *testing.T) {
	ls, err := live.NewStore(store.FromTriples([]rdf.Triple{tr("a", "p", "b")}), live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	le, err := engines.NewLive("naive", ls)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := le.Open(query.MustParseSPARQL(`SELECT ?s ?o WHERE { ?s <http://x/p> ?o }`), engine.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.Stats().PinnedReaders; got != 1 {
		t.Fatalf("pinned = %d, want 1", got)
	}
	if _, err := ls.Insert([]rdf.Triple{tr("c", "p", "d")}); err != nil {
		t.Fatal(err)
	}
	if got := ls.Stats().PinnedReaders; got != 1 {
		t.Fatalf("pinned after Apply = %d, want 1 (same-epoch cursor dropped from the count)", got)
	}
	cur.Close()
	if got := ls.Stats().PinnedReaders; got != 0 {
		t.Fatalf("pinned after close = %d, want 0", got)
	}
}

// TestSetShardsNoOp: re-requesting the current shard count must not bump
// the epoch or rebuild engines.
func TestSetShardsNoOp(t *testing.T) {
	ls, err := live.NewStore(store.FromTriples([]rdf.Triple{tr("a", "p", "b")}), live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.SetShards(0); err != nil {
		t.Fatal(err)
	}
	if err := ls.SetShards(1); err != nil {
		t.Fatal(err)
	}
	if ls.Epoch() != 0 {
		t.Fatalf("no-op SetShards bumped epoch to %d", ls.Epoch())
	}
	if err := ls.SetShards(2); err != nil {
		t.Fatal(err)
	}
	if ls.Epoch() != 1 || ls.Shards() != 2 {
		t.Fatalf("SetShards(2): epoch=%d shards=%d", ls.Epoch(), ls.Shards())
	}
	if err := ls.SetShards(2); err != nil {
		t.Fatal(err)
	}
	if ls.Epoch() != 1 {
		t.Fatalf("repeat SetShards(2) bumped epoch to %d", ls.Epoch())
	}
}

func TestOverlayMatchesRebuiltSmall(t *testing.T) {
	// A little star+path dataset exercising joins across base and delta.
	var ts []rdf.Triple
	for i := 0; i < 6; i++ {
		ts = append(ts, tr(fmt.Sprintf("s%d", i), "knows", fmt.Sprintf("s%d", (i+1)%6)))
		ts = append(ts, tr(fmt.Sprintf("s%d", i), "type", "Person"))
	}
	ls, err := live.NewStore(store.FromTriples(ts), live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := newTripleSet(ts)

	// Inserts join against base triples, deletes break base join chains.
	want.apply(t, ls, live.Patch{Ops: []live.Op{
		{Triple: tr("s1", "knows", "s4")},               // new edge between base nodes
		{Triple: tr("n9", "knows", "s0")},               // new node into base
		{Triple: tr("n9", "type", "Person")},            // ...typed by an insert
		{Delete: true, Triple: tr("s2", "knows", "s3")}, // cut a base chain
		{Delete: true, Triple: tr("s5", "type", "Person")},
	}})

	queries := []string{
		`SELECT ?a ?b WHERE { ?a <http://x/knows> ?b }`,
		`SELECT ?a ?b ?c WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c }`,
		`SELECT ?a WHERE { ?a <http://x/type> <http://x/Person> . ?a <http://x/knows> ?b . ?b <http://x/type> <http://x/Person> }`,
		`SELECT DISTINCT ?b WHERE { ?a <http://x/knows> ?b . ?a <http://x/type> <http://x/Person> }`,
		`SELECT ?a ?p ?b WHERE { ?a ?p ?b }`,
	}
	overlayEquals(t, ls, want, queries...)

	// After compaction the same queries must agree again (fast path).
	if _, err := ls.Compact(); err != nil {
		t.Fatal(err)
	}
	overlayEquals(t, ls, want, queries...)
}

// TestPendingDeltaAllocatesNothingBaseSized pins that the base is indexed
// once, by its tries: after a compaction, with those tries built (a query
// or a segment write does that), applying a small patch and answering a
// constant-rooted query over the pending delta must allocate a small
// constant — no per-epoch copy of the base table on either path.
func TestPendingDeltaAllocatesNothingBaseSized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals mean nothing under the race detector")
	}
	const n = 200_000
	base := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		base = append(base, tr(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%4), fmt.Sprintf("s%d", (i*7+1)%n)))
	}
	ls, err := live.NewStore(store.FromTriples(base), live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	le, err := engines.NewLive("emptyheaded", ls)
	if err != nil {
		t.Fatal(err)
	}
	// s4 -p0-> s29 -p1-> s204, and the patch hangs more off both hops.
	q := query.MustParseSPARQL(`SELECT ?b ?c WHERE { <http://x/s4> <http://x/p0> ?b . ?b <http://x/p1> ?c }`)
	run := func() int {
		t.Helper()
		res, err := engine.Collect(le.Open(q, engine.ExecOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Len()
	}
	if _, err := ls.Insert([]rdf.Triple{tr("s4", "p0", "s33")}); err != nil {
		t.Fatal(err)
	}
	if st, err := ls.Compact(); err != nil || !st.Swapped {
		t.Fatalf("compact: %+v, %v", st, err)
	}
	for _, p := range ls.Base().Predicates() {
		ls.Base().Relation(p).TrieSO(set.PolicyAdaptive)
		ls.Base().Relation(p).TrieOS(set.PolicyAdaptive)
	}
	if got := run(); got != 2 {
		t.Fatalf("compacted base answers %d rows, want 2", got)
	}

	patch := live.Patch{Ops: []live.Op{
		{Delete: true, Triple: tr("s4", "p0", "s33")},
		{Delete: true, Triple: tr("s8", "p0", "s57")},
	}}
	for i := 0; i < 8; i++ {
		patch.Ops = append(patch.Ops, live.Op{Triple: tr("s29", "p1", fmt.Sprintf("s%d", i))})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if res, err := ls.Apply(patch); err != nil || res.Inserted != 8 || res.Deleted != 2 {
		t.Fatalf("apply: %+v, %v", res, err)
	}
	got := run()
	runtime.ReadMemStats(&after)
	if got != 9 {
		t.Fatalf("overlay answers %d rows, want 9", got)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("a 10-op patch and one point query over a %d-triple base allocated %d bytes, want < 1 MB", n, alloc)
	}
}
