package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func snapshotFileStore() *Store {
	b := NewBuilder()
	b.Add(rdf.Triple{S: rdf.NewIRI("http://f/a"), P: rdf.NewIRI("http://f/p"), O: rdf.NewIRI("http://f/b")})
	b.Add(rdf.Triple{S: rdf.NewIRI("http://f/b"), P: rdf.NewIRI("http://f/p"), O: rdf.NewLiteral("x")})
	return b.Build()
}

func TestWriteSnapshotFileRoundTrip(t *testing.T) {
	st := snapshotFileStore()
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := AtomicWriteFile(path, st.WriteSnapshot); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTriples() != st.NumTriples() || got.Dict().Size() != st.Dict().Size() {
		t.Fatalf("round trip: %v vs %v", got, st)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after write: %v", entries)
	}
}

// TestAtomicWriteFilePreservesOldOnFailure: a failing write (a crashing
// compaction mid-serialization) must leave the previous snapshot intact and
// clean up its temp file.
func TestAtomicWriteFilePreservesOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("GOOD"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("HALF-WRITTEN"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "GOOD" {
		t.Fatalf("old snapshot clobbered: %q", b)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}
