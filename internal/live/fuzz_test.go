package live_test

// FuzzPatch feeds arbitrary byte strings through the /update patch parser
// and, for every patch that parses, checks the subsystem's central
// invariant: applying the patch to a live store leaves an overlay identical
// to replaying the operations on a plain in-memory triple set (and the same
// again after a compaction swap). Malformed input must error, never panic;
// duplicate inserts, deletes of absent triples, and insert-then-delete
// within one batch all net correctly.

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/live"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

func fuzzBase() []rdf.Triple {
	return []rdf.Triple{
		tr("a", "p", "b"), tr("b", "p", "c"), tr("c", "p", "a"),
		tr("a", "q", "c"), tr("b", "q", "b"),
	}
}

// overlayKeys returns the overlay's visible triple set, read by a full scan
// through the live wrapper, rendered as N-Triples lines. A triple the scan
// returns twice fails the test.
func overlayKeys(t *testing.T, ls *live.Store) map[string]bool {
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
	out := make(map[string]bool, res.Len())
	for _, row := range res.Rows {
		out[rdf.Triple{S: d.Decode(row[0]), P: d.Decode(row[1]), O: d.Decode(row[2])}.String()] = true
	}
	if len(out) != res.Len() {
		t.Fatalf("full scan returned %d rows for %d distinct triples", res.Len(), len(out))
	}
	return out
}

func FuzzPatch(f *testing.F) {
	f.Add("+<http://x/a> <http://x/p> <http://x/b> .\n")
	f.Add("-<http://x/a> <http://x/p> <http://x/b> .\n")
	f.Add("<http://x/n1> <http://x/p> \"lit\"@en .\n-<http://x/b> <http://x/p> <http://x/c> .\n")
	f.Add("+<http://x/n> <http://x/p> <http://x/m> .\n-<http://x/n> <http://x/p> <http://x/m> .\n")
	f.Add("-<http://x/n> <http://x/p> <http://x/m> .\n+<http://x/n> <http://x/p> <http://x/m> .\n")
	f.Add("# comment\n\n+<http://x/a> <http://x/p> <http://x/b> .\n+<http://x/a> <http://x/p> <http://x/b> .\n")
	f.Add("+<http://x/a> <http://x/p> \"esc\\u0041\\n\" .\n")
	f.Add("garbage line\n")
	f.Add("+<http://x/a> <http://x/p> .\n")
	f.Add("-")
	f.Add("+")
	f.Add("<http://x/a> <http://x/p> <http://x/b> . trailing\n")
	f.Fuzz(func(t *testing.T, data string) {
		patch, err := live.ParsePatch(strings.NewReader(data))
		if err != nil {
			return // malformed input is rejected, not crashed on
		}
		base := fuzzBase()
		ls, err := live.NewStore(store.FromTriples(base), live.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ls.Apply(patch); err != nil {
			t.Fatalf("apply: %v", err)
		}

		// Replay the same operations on a plain set — the oracle.
		want := map[string]bool{}
		for _, tri := range base {
			want[tri.String()] = true
		}
		for _, op := range patch.Ops {
			if op.Delete {
				delete(want, op.Triple.String())
			} else {
				want[op.Triple.String()] = true
			}
		}

		compare := func(stage string) {
			got := overlayKeys(t, ls)
			if len(got) != len(want) {
				t.Fatalf("%s: overlay has %d triples, oracle %d\npatch:\n%s", stage, len(got), len(want), data)
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("%s: overlay missing %s\npatch:\n%s", stage, k, data)
				}
			}
			if n := ls.NumTriples(); n != len(want) {
				t.Fatalf("%s: NumTriples = %d, oracle %d", stage, n, len(want))
			}
		}
		compare("after apply")
		if _, err := ls.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		compare("after compact")
	})
}
