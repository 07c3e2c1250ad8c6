package bench

import (
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/store"
)

func smallConfig() Config { return Config{Scale: 1, Seed: 0, Reps: 1} }

func TestNewDataset(t *testing.T) {
	st := NewDataset(smallConfig())
	if st.NumTriples() < 10000 {
		t.Fatalf("dataset too small: %d", st.NumTriples())
	}
}

func TestMeasureProtocol(t *testing.T) {
	st := NewDataset(smallConfig())
	engs := engines.TableII(st)
	q, err := query.ParseSPARQL(lubm.Query(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, rows, err := Measure(3, engs[0], q)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if d <= 0 {
		t.Errorf("non-positive duration %v", d)
	}
	if rows == 0 {
		t.Errorf("query 1 returned no rows")
	}
	// Reps < 1 clamps to a single run.
	if _, _, err := Measure(0, engs[0], q); err != nil {
		t.Errorf("Measure with reps 0: %v", err)
	}
	// A query that returns at once is timed as batches of runs, each
	// sample spanning at least sampleSpan, not one run per sample.
	var instant countingEngine
	if _, _, err := Measure(3, &instant, q); err != nil {
		t.Fatalf("Measure on an instant engine: %v", err)
	}
	if instant.opens < 100 {
		t.Errorf("an instant query was opened %d times for 3 samples, want >= 100", instant.opens)
	}
}

// countingEngine counts its Opens; each returns an empty cursor at once.
type countingEngine struct{ opens int }

func (e *countingEngine) Name() string { return "counting" }

func (e *countingEngine) Open(*query.BGP, engine.ExecOpts) (engine.Cursor, error) {
	e.opens++
	return emptyCursor{}, nil
}

type emptyCursor struct{}

func (emptyCursor) Vars() []string                  { return nil }
func (emptyCursor) NextBlock(b *engine.Block) error { return io.EOF }
func (emptyCursor) Truncated() bool                 { return false }
func (emptyCursor) Close() error                    { return nil }
func (emptyCursor) Next() ([]uint32, error)         { return nil, io.EOF }

func TestTableISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig()
	st := NewDataset(cfg)
	rows, err := TableI(st, cfg)
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	if len(rows) != len(TableIQueries) {
		t.Fatalf("TableI rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BaseMillis <= 0 {
			t.Errorf("query %d base time %v", r.Query, r.BaseMillis)
		}
		if r.Layout <= 0 || r.Attribute <= 0 || r.GHD <= 0 {
			t.Errorf("query %d has non-positive speedup: %+v", r.Query, r)
		}
	}
	out := FormatTableI(rows)
	if !strings.Contains(out, "+Layout") || !strings.Contains(out, "+GHD") {
		t.Errorf("FormatTableI output missing headers:\n%s", out)
	}
}

func TestTableIISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig()
	st := NewDataset(cfg)
	rows, names, err := TableII(st, cfg)
	if err != nil {
		t.Fatalf("TableII: %v", err)
	}
	if len(rows) != len(lubm.QueryNumbers) {
		t.Fatalf("TableII rows = %d", len(rows))
	}
	if len(names) != 5 {
		t.Fatalf("engines = %v", names)
	}
	for _, r := range rows {
		best, ok := r.Relative[r.Best]
		if !ok || best != 1.0 {
			t.Errorf("query %d best engine %q relative = %v", r.Query, r.Best, best)
		}
		for name, rel := range r.Relative {
			if rel < 1.0 {
				t.Errorf("query %d engine %s relative %v < 1", r.Query, name, rel)
			}
		}
	}
	out := FormatTableII(rows, names)
	if !strings.Contains(out, "Best(ms)") || !strings.Contains(out, "emptyheaded") {
		t.Errorf("FormatTableII output missing headers:\n%s", out)
	}
}

func TestEngineListOrderMatchesPaper(t *testing.T) {
	st := store.FromTriples(nil)
	names := []string{}
	for _, e := range engines.TableII(st) {
		names = append(names, e.Name())
	}
	want := []string{"emptyheaded", "triplebit", "rdf3x", "monetdb", "logicblox"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("engine %d = %s, want %s", i, names[i], want[i])
		}
	}
}
