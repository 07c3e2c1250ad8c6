package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lubm"
	"repro/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	orig := FromTriples([]rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s2", "p1", "o2"),
		{S: rdf.NewIRI("s1"), P: rdf.NewIRI("name"), O: rdf.NewLiteral("Alice")},
		{S: rdf.NewIRI("s1"), P: rdf.NewIRI("label"), O: rdf.NewLangLiteral("chat", "fr")},
		{S: rdf.NewIRI("s1"), P: rdf.NewIRI("age"), O: rdf.NewTypedLiteral("5", "http://int")},
		{S: rdf.NewBlank("b0"), P: rdf.NewIRI("p1"), O: rdf.NewIRI("o1")},
	})
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.NumTriples() != orig.NumTriples() {
		t.Fatalf("triples = %d, want %d", got.NumTriples(), orig.NumTriples())
	}
	if got.Dict().Size() != orig.Dict().Size() {
		t.Fatalf("dict = %d, want %d", got.Dict().Size(), orig.Dict().Size())
	}
	// Ids must be preserved exactly (so snapshots of results stay valid).
	for id := 0; id < orig.Dict().Size(); id++ {
		if orig.Dict().Decode(uint32(id)) != got.Dict().Decode(uint32(id)) {
			t.Errorf("term %d differs: %v vs %v", id,
				orig.Dict().Decode(uint32(id)), got.Dict().Decode(uint32(id)))
		}
	}
	for i, tr := range orig.Triples() {
		if got.Triples()[i] != tr {
			t.Errorf("triple %d differs", i)
		}
	}
}

func TestSnapshotRoundTripLUBM(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	b := NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: 1}, b.Add)
	orig := b.Build()
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	t.Logf("LUBM(1): %d triples -> %d snapshot bytes", orig.NumTriples(), buf.Len())
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.NumTriples() != orig.NumTriples() || got.Dict().Size() != orig.Dict().Size() {
		t.Errorf("round trip size mismatch")
	}
	// Statistics are rebuilt identically.
	for _, p := range orig.Predicates() {
		if orig.Stats(p) != got.Stats(p) {
			t.Errorf("stats differ for predicate %d", p)
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"NOTMAGIC",
		"RDFSNAP1",                     // truncated after magic
		"RDFSNAP1\x01",                 // term count but no terms
		"RDFSNAP1\x01\x09\x01a",        // invalid term kind 9
		"RDFSNAP1\x00\x01\x05\x00\x00", // triple references unknown id 5
	}
	for _, c := range cases {
		if _, err := ReadSnapshot(strings.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
}

// TestSnapshotFileRoundTrip covers the on-disk atomic write path end to
// end: AtomicWriteFile(WriteSnapshot) → ReadSnapshot through a real file,
// including the rename-durability step (the parent-directory fsync inside
// AtomicWriteFile — its error is propagated, not swallowed; without it a
// power loss can undo the rename after the call reported success).
func TestSnapshotFileRoundTrip(t *testing.T) {
	orig := FromTriples([]rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s2", "p1", "o2"),
		{S: rdf.NewIRI("s1"), P: rdf.NewIRI("name"), O: rdf.NewLiteral("Alice")},
	})
	dir := t.TempDir()
	path := filepath.Join(dir, "data.snap")
	if err := AtomicWriteFile(path, orig.WriteSnapshot); err != nil {
		t.Fatalf("AtomicWriteFile: %v", err)
	}
	// Overwrite in place: the atomic rename must replace, never corrupt.
	if err := AtomicWriteFile(path, orig.WriteSnapshot); err != nil {
		t.Fatalf("second AtomicWriteFile: %v", err)
	}
	// No temp-file litter may survive a successful write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "data.snap" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only data.snap", names)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadSnapshot(f)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.NumTriples() != orig.NumTriples() || got.Dict().Size() != orig.Dict().Size() {
		t.Fatal("file round trip size mismatch")
	}
}

func TestAtomicWriteFileCleansUpOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	boom := errors.New("boom")
	if err := AtomicWriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed write left the destination file behind")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed write left %d temp files behind", len(ents))
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory reported success")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := FromTriples(nil).WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.NumTriples() != 0 {
		t.Errorf("empty store round trip = %d triples", got.NumTriples())
	}
}
