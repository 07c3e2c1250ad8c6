package durable_test

// Crash-recovery suite: kill -9 is simulated by copying the data directory
// while the store is still open (no seal, no graceful teardown — exactly
// the bytes a crash would leave, given that SyncAlways makes every returned
// Apply durable) and re-opening the copy. Recovery must reconstruct exactly
// the triple set the test applied before the crash, verified both as a
// triple multiset and through the engine conformance harness (every
// registered engine vs a naive oracle over that set rebuilt from scratch).

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/live"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

func node(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://c/n%d", i)) }

var predP = rdf.NewIRI("http://c/p")

// digraphTriples builds the complete-digraph conformance dataset split into
// base triples, later inserts, and tombstoned base triples (mirroring
// live's conformance overlay).
func digraphTriples(n int) (base, held, dead []rdf.Triple) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tr := rdf.Triple{S: node(i), P: predP, O: node(j)}
			if (i+j)%17 == 0 {
				held = append(held, tr)
			} else {
				base = append(base, tr)
				if (i*j)%23 == 1 {
					dead = append(dead, tr)
				}
			}
		}
	}
	return
}

func openDigraph(t *testing.T, dir string, n int, pol wal.Policy) *durable.Store {
	t.Helper()
	base, _, _ := digraphTriples(n)
	d, err := durable.Open(dir, func() (*store.Store, error) {
		return store.FromTriples(base), nil
	}, durable.Options{Fsync: pol})
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	return d
}

// copyDir simulates kill -9: it captures the exact current bytes of the
// data directory into a fresh directory, ignoring nothing — whatever is on
// disk at this instant is what a restarted process would find.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// applied is a test's own record of the triple set it built: the oracle a
// recovered overlay is compared against, independent of how the live store
// materializes one.
type applied map[rdf.Triple]bool

func newApplied(base []rdf.Triple) applied {
	a := make(applied, len(base))
	for _, tr := range base {
		a[tr] = true
	}
	return a
}

// insert inserts ts into ls and records them.
func (a applied) insert(t *testing.T, ls *live.Store, ts []rdf.Triple) {
	t.Helper()
	if _, err := ls.Insert(ts); err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		a[tr] = true
	}
}

// delete deletes ts from ls and records it.
func (a applied) delete(t *testing.T, ls *live.Store, ts []rdf.Triple) {
	t.Helper()
	if _, err := ls.Delete(ts); err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		delete(a, tr)
	}
}

// lines canonicalizes the set as sorted N-Triples lines.
func (a applied) lines() string {
	lines := make([]string, 0, len(a))
	for tr := range a {
		lines = append(lines, tr.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// build re-encodes the set into a fresh store (new dictionary, new ids).
func (a applied) build() *store.Store {
	b := store.NewBuilder()
	for tr := range a {
		b.Add(tr)
	}
	return b.Build()
}

// overlayLines canonicalizes a live store's visible triple set, read by a
// full scan through the live wrapper, as sorted N-Triples lines.
func overlayLines(t *testing.T, ls *live.Store) string {
	t.Helper()
	le, err := engines.NewLive("naive", ls)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Collect(le.Open(query.MustParseSPARQL(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`), engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	d := ls.Dict()
	lines := make([]string, 0, res.Len())
	for _, row := range res.Rows {
		lines = append(lines, rdf.Triple{S: d.Decode(row[0]), P: d.Decode(row[1]), O: d.Decode(row[2])}.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// conformance runs the triangle query on every registered engine over ls
// and compares against the naive oracle on the applied set rebuilt from
// scratch.
func conformance(t *testing.T, ls *live.Store, a applied) {
	t.Helper()
	rebuilt := a.build()
	oracle, err := engines.New("naive", rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParseSPARQL(`SELECT ?x ?y ?z WHERE { ?x <http://c/p> ?y . ?y <http://c/p> ?z . ?x <http://c/p> ?z }`)
	want, err := engine.Collect(oracle.Open(q, engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	wantC := canon(want, rebuilt)
	for _, name := range engines.Names() {
		le, err := engines.NewLive(name, ls)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.Collect(le.Open(q, engine.ExecOpts{}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gotC := canonDict(got, ls.Dict().Decode); gotC != wantC {
			t.Errorf("%s: recovered overlay != rebuilt store (%d vs %d rows)", name, got.Len(), want.Len())
		}
	}
}

func canon(res *engine.Result, st *store.Store) string {
	return canonDict(res, st.Dict().Decode)
}

func canonDict(res *engine.Result, decode func(uint32) rdf.Term) string {
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, id := range row {
			parts[i] = decode(id).String()
		}
		lines = append(lines, strings.Join(parts, "\t"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestCleanRestart: apply a two-sided patch stream, close cleanly, reopen —
// the overlay must be byte-identical and the log must report a seal.
func TestCleanRestart(t *testing.T) {
	dir := t.TempDir()
	d := openDigraph(t, dir, 12, wal.Policy{Mode: wal.SyncAlways})
	base, held, dead := digraphTriples(12)
	a := newApplied(base)
	a.insert(t, d.Live(), held)
	a.delete(t, d.Live(), dead)
	want := a.lines()
	if got := overlayLines(t, d.Live()); got != want {
		t.Fatal("overlay differs from the applied triple set before shutdown")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := durable.Open(dir, func() (*store.Store, error) {
		t.Fatal("bootstrap ran on an initialized directory")
		return nil, nil
	}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Recovered().Sealed {
		t.Error("clean shutdown not detected as sealed")
	}
	if d2.Recovered().Records == 0 {
		t.Error("no records replayed after restart")
	}
	if got := overlayLines(t, d2.Live()); got != want {
		t.Fatal("recovered overlay differs from the applied triple set")
	}
	conformance(t, d2.Live(), a)
}

// TestKillMidStream is the headline crash test: under SyncAlways, the data
// directory is snapshotted (kill -9) after every returned patch group, and
// each snapshot must recover to exactly the overlay visible at that moment.
func TestKillMidStream(t *testing.T) {
	dir := t.TempDir()
	d := openDigraph(t, dir, 12, wal.Policy{Mode: wal.SyncAlways})
	defer d.Close()
	base, held, dead := digraphTriples(12)
	a := newApplied(base)

	type snap struct {
		dir  string
		want string
	}
	var snaps []snap
	group := 5
	for i := 0; i < len(held); i += group {
		end := min(i+group, len(held))
		a.insert(t, d.Live(), held[i:end])
		if i/group%3 == 0 {
			snaps = append(snaps, snap{copyDir(t, dir), a.lines()})
		}
	}
	a.delete(t, d.Live(), dead)
	snaps = append(snaps, snap{copyDir(t, dir), a.lines()})

	for i, s := range snaps {
		d2, err := durable.Open(s.dir, func() (*store.Store, error) {
			t.Fatalf("snapshot %d: bootstrap ran", i)
			return nil, nil
		}, durable.Options{})
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if d2.Recovered().Sealed {
			t.Errorf("snapshot %d: kill -9 image reported a clean seal", i)
		}
		if got := overlayLines(t, d2.Live()); got != s.want {
			t.Errorf("snapshot %d: recovered overlay differs from the triples applied before the crash", i)
		}
		if i == len(snaps)-1 {
			conformance(t, d2.Live(), a)
		}
		d2.Close()
	}
}

// TestTornTailRecovery: a crash image whose WAL is cut mid-record (and, in
// a second variant, CRC-corrupted in the final record) must lose exactly
// the affected suffix and recover the preceding records.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	d := openDigraph(t, dir, 12, wal.Policy{Mode: wal.SyncAlways})
	base, held, _ := digraphTriples(12)
	// Apply one record, record the expected post-recovery state, then a
	// second record that will be torn away.
	a := newApplied(base)
	a.insert(t, d.Live(), held[:4])
	want := a.lines()
	if _, err := d.Live().Insert(held[4:8]); err != nil {
		t.Fatal(err)
	}
	crash := copyDir(t, dir)
	d.Close()

	walPath := filepath.Join(crash, durable.WALName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated-mid-record": func(b []byte) []byte { return b[:len(b)-7] },
		"crc-corrupted": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-3] ^= 0x5A
			return c
		},
	} {
		t.Run(name, func(t *testing.T) {
			tdir := copyDir(t, crash)
			if err := os.WriteFile(filepath.Join(tdir, durable.WALName), mutate(full), 0o644); err != nil {
				t.Fatal(err)
			}
			d2, err := durable.Open(tdir, nil, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			info := d2.Recovered()
			if info.TornBytes == 0 {
				t.Error("no torn tail detected")
			}
			if info.Records != 1 {
				t.Errorf("replayed %d records, want 1", info.Records)
			}
			if got := overlayLines(t, d2.Live()); got != want {
				t.Error("recovery after torn tail does not match the last durable record boundary")
			}
		})
	}
}

// TestCompactPersistsAndTruncates: Compact must replace the segment, empty
// the WAL, and leave a directory that reopens to the same overlay with
// nothing to replay.
func TestCompactPersistsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	d := openDigraph(t, dir, 12, wal.Policy{Mode: wal.SyncAlways})
	base, held, dead := digraphTriples(12)
	a := newApplied(base)
	a.insert(t, d.Live(), held)
	a.delete(t, d.Live(), dead)
	want := a.lines()
	preSeg, err := os.Stat(filepath.Join(dir, durable.SegmentName))
	if err != nil {
		t.Fatal(err)
	}

	stats, err := d.Live().Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if !stats.Swapped {
		t.Fatal("compact did not swap")
	}
	if wb := d.Stats().WAL.Bytes; wb != 0 {
		t.Fatalf("WAL holds %d bytes after compaction, want 0", wb)
	}
	postSeg, err := os.Stat(filepath.Join(dir, durable.SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	if postSeg.Size() == preSeg.Size() && postSeg.ModTime() == preSeg.ModTime() {
		t.Fatal("segment not rewritten by compaction")
	}
	if got := overlayLines(t, d.Live()); got != want {
		t.Fatal("overlay changed across compaction")
	}
	d.Close()

	// Crash image right after compaction: nothing to replay, same overlay.
	d2, err := durable.Open(dir, nil, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Recovered().Records != 0 {
		t.Fatalf("replayed %d records after compaction, want 0", d2.Recovered().Records)
	}
	if got := overlayLines(t, d2.Live()); got != want {
		t.Fatal("post-compaction reopen differs")
	}
	conformance(t, d2.Live(), a)
}

// TestCrashBetweenSegmentAndTruncate: if the process dies after the new
// segment is in place but before the WAL truncates, replaying the stale log
// against the new base must net to no-ops (idempotent replay).
func TestCrashBetweenSegmentAndTruncate(t *testing.T) {
	dir := t.TempDir()
	d := openDigraph(t, dir, 12, wal.Policy{Mode: wal.SyncAlways})
	base, held, dead := digraphTriples(12)
	a := newApplied(base)
	a.insert(t, d.Live(), held)
	a.delete(t, d.Live(), dead)
	want := a.lines()
	staleWAL, err := os.ReadFile(filepath.Join(dir, durable.WALName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Live().Compact(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Re-impose the pre-compaction WAL next to the post-compaction segment.
	if err := os.WriteFile(filepath.Join(dir, durable.WALName), staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := durable.Open(dir, nil, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if ins, del := d2.Live().DeltaSize(); ins != 0 || del != 0 {
		t.Fatalf("stale replay left a delta (ins=%d del=%d); should net to no-ops", ins, del)
	}
	if got := overlayLines(t, d2.Live()); got != want {
		t.Fatal("stale-WAL replay corrupted the overlay")
	}
}

// TestShardedDurable: the sharded serving option composes with recovery.
func TestShardedDurable(t *testing.T) {
	dir := t.TempDir()
	base, held, dead := digraphTriples(12)
	d, err := durable.Open(dir, func() (*store.Store, error) {
		return store.FromTriples(base), nil
	}, durable.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := newApplied(base)
	a.insert(t, d.Live(), held)
	a.delete(t, d.Live(), dead)
	want := a.lines()
	crash := copyDir(t, dir)
	d.Close()

	d2, err := durable.Open(crash, nil, durable.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Live().Shards() != 3 {
		t.Fatalf("shards = %d, want 3", d2.Live().Shards())
	}
	if got := overlayLines(t, d2.Live()); got != want {
		t.Fatal("sharded recovery differs")
	}
	conformance(t, d2.Live(), a)
}

// A crash between segment.Write's CreateTemp and its rename leaves a
// base.seg.tmp* corpse; Open must sweep it so crash/compaction cycles do
// not accumulate dead segment-sized files.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	d := openDigraph(t, dir, 8, wal.Policy{Mode: wal.SyncAlways})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, durable.SegmentName+".tmp1234567")
	if err := os.WriteFile(stale, []byte("orphaned by a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openDigraph(t, dir, 8, wal.Policy{Mode: wal.SyncAlways})
	defer d2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open: stat err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, durable.SegmentName)); err != nil {
		t.Fatalf("real segment touched by sweep: %v", err)
	}
}
