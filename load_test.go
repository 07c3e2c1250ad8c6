package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestOpenDatasetNTriples covers the non-durable file path that rdfq -data
// and rdfserved -data boot through: a file larger than the loader's read
// buffer opens with every distinct triple, and a parse error names the file.
func TestOpenDatasetNTriples(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	const n = 3000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<http://ex/s%d> <http://ex/p> \"value %d\" .\n", i, i)
	}
	b.WriteString("<http://ex/s0> <http://ex/p> \"value 0\" .\n") // a duplicate
	if b.Len() <= 1<<16 {
		t.Fatalf("fixture is %d bytes, want more than one 64 KiB read", b.Len())
	}
	good := filepath.Join(dir, "good.nt")
	if err := os.WriteFile(good, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := repro.OpenDataset(good)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	if ds.Durable() != nil {
		t.Fatal("a dataset opened without WithDataDir is durable")
	}
	if got := ds.NumTriples(); got != n {
		t.Fatalf("NumTriples = %d, want %d", got, n)
	}

	bad := filepath.Join(dir, "bad.nt")
	if err := os.WriteFile(bad, []byte(apiTestData+"garbage line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.OpenDataset(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("err = %v, want a parse error naming %s", err, bad)
	}
	if _, err := repro.OpenDataset(filepath.Join(dir, "missing.nt")); err == nil {
		t.Fatal("a missing file opened")
	}
}

// TestOpenDatasetLUBMSeed: WithLUBM seeds a fresh data directory, and a
// reopen without it serves the persisted segment (same triple count, the
// segment file untouched, nothing replayed) instead of bootstrapping again.
func TestOpenDatasetLUBMSeed(t *testing.T) {
	dir := t.TempDir()
	want := repro.GenerateLUBM(1, 0).NumTriples()

	ds, err := repro.OpenDataset("", repro.WithDataDir(dir), repro.WithLUBM(1), repro.WithFsync("off"))
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	if got := ds.NumTriples(); got != want {
		t.Fatalf("seeded dataset holds %d triples, want %d", got, want)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "base.seg")
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("first open wrote no segment: %v", err)
	}

	// Without WithLUBM or a path, a bootstrap would start empty.
	ds2, err := repro.OpenDataset("", repro.WithDataDir(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ds2.Close()
	if got := ds2.NumTriples(); got != want {
		t.Fatalf("reopened dataset holds %d triples, want %d", got, want)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("reopen rewrote the segment")
	}
	st := ds2.Durable().Stats()
	if st.SegmentsMapped != 1 || st.SegmentBytes != before.Size() || st.ReplayedRecords != 0 {
		t.Fatalf("reopen stats %+v, want one loaded %d-byte segment and nothing replayed", st, before.Size())
	}
}
