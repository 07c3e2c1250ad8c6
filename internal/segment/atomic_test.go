package segment

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(*os.File) error {
	return func(f *os.File) error {
		_, err := f.WriteString(s)
		return err
	}
}

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestAtomicWriteFilePreservesOldOnFailure: a successful write replaces the
// file in place, and a failing one (a compaction crashing mid-write) leaves
// the previous file intact; neither leaves a temp file behind.
func TestAtomicWriteFilePreservesOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.seg")
	for _, s := range []string{"OLD", "GOOD"} {
		if err := atomicWriteFile(path, writeString(s)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	err := atomicWriteFile(path, func(f *os.File) error {
		f.WriteString("HALF-WRITTEN")
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
		t.Fatalf("file holds %q, want GOOD", b)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "base.seg" {
		t.Fatalf("directory holds %v, want only base.seg", names)
	}
}

func TestAtomicWriteFileCleansUpOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	boom := errors.New("boom")
	if err := atomicWriteFile(path, func(*os.File) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed write left the destination file behind")
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("failed write left %v behind", names)
	}
}

func TestSyncDir(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a real directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncDir on a missing directory reported success")
	}
}
