package store

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/set"
)

// TestFromEncodedSortsAndDedups hands FromEncoded unsorted rows with
// repeats: every relation must come out sorted by (S, O) and repeat-free,
// with statistics over the distinct rows, and All must yield each triple
// once.
func TestFromEncodedSortsAndDedups(t *testing.T) {
	in := []Triple{
		{S: 5, P: 2, O: 9}, {S: 1, P: 2, O: 7}, {S: 5, P: 2, O: 9},
		{S: 3, P: 4, O: 1}, {S: 1, P: 2, O: 8}, {S: 1, P: 2, O: 7},
		{S: 3, P: 4, O: 1}, {S: 2, P: 4, O: 1}, {S: 5, P: 2, O: 7},
	}
	st := FromEncoded(dict.New(), in)
	want := []Triple{
		{S: 1, P: 2, O: 7}, {S: 1, P: 2, O: 8}, {S: 5, P: 2, O: 7}, {S: 5, P: 2, O: 9},
		{S: 2, P: 4, O: 1}, {S: 3, P: 4, O: 1},
	}
	if got := slices.Collect(st.All()); !slices.Equal(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
	if st.NumTriples() != len(want) {
		t.Fatalf("NumTriples = %d, want %d", st.NumTriples(), len(want))
	}
	for _, c := range []struct {
		p    uint32
		want Stats
	}{{2, Stats{Rows: 4, DistinctS: 2, DistinctO: 3}}, {4, Stats{Rows: 2, DistinctS: 2, DistinctO: 1}}} {
		if got := st.Stats(c.p); got != c.want {
			t.Errorf("predicate %d: Stats = %+v, want %+v", c.p, got, c.want)
		}
	}
	if !st.Has(Triple{S: 5, P: 2, O: 9}, set.PolicyAdaptive) || st.Has(Triple{S: 5, P: 2, O: 8}, set.PolicyAdaptive) {
		t.Error("Has disagrees with the rows")
	}
}

// TestBuilderLoadAllocs is the load gate: building LUBM scale 1 (about
// 100,000 triples) through a Builder must allocate at most 12 MB in all and
// retain at most 4.3 MB once collected. The relations are the only copy of
// the data, so a second triple table or a per-triple dedup map shows here.
func TestBuilderLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are meaningless under the race detector")
	}
	const maxTotal, maxRetained = 12 << 20, 4.3 * (1 << 20)
	ts := lubm.Generate(lubm.Config{Universities: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewBuilder()
	b.AddAll(ts)
	st := b.Build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ts)
	total := after.TotalAlloc - before.TotalAlloc
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d triples: %.1f MB allocated, %.1f MB retained",
		st.NumTriples(), float64(total)/(1<<20), float64(retained)/(1<<20))
	if total > maxTotal {
		t.Errorf("building allocated %d bytes, want <= %d", total, maxTotal)
	}
	if float64(retained) > maxRetained {
		t.Errorf("the built store retains %d bytes, want <= %.0f", retained, maxRetained)
	}
}
