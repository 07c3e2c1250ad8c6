// Package bench is the harness that regenerates the paper's evaluation
// artifacts: Table I (relative speedup of each classic optimization on
// selected LUBM queries) and Table II (runtime of the five engines on the
// full benchmark). It is shared by cmd/benchtables and the root
// bench_test.go.
//
// Timing follows §IV-A4 of the paper: each query is timed Reps times (the
// paper used seven), the best and worst samples are discarded, and the rest
// are averaged. A sample that one run would leave below 10 ms times a batch
// of back-to-back runs instead. Data loading and index construction are
// excluded.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// Config parameterizes a benchmark run.
type Config struct {
	// Scale is the LUBM scale factor (universities).
	Scale int
	// Seed selects the generator stream.
	Seed int64
	// Reps is the number of timed samples per query (≥1). With Reps ≥ 3
	// the best and worst samples are discarded, following the paper.
	Reps int
}

// NewDataset generates and loads the LUBM dataset for cfg.
func NewDataset(cfg Config) *store.Store {
	b := store.NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: cfg.Scale, Seed: cfg.Seed}, b.Add)
	return b.Build()
}

// sampleSpan is the least wall time one timed sample spans. A query that
// runs in microseconds is timed as a batch of back-to-back runs, so that a
// sample resolves it above timer and scheduling noise.
const sampleSpan = 10 * time.Millisecond

// Measure times one query execution protocol: Reps samples, best and worst
// dropped when Reps >= 3, mean of the rest. Each sample times a batch of
// back-to-back runs spanning at least sampleSpan (one run for a query that
// takes that long) and counts as the time per run; the batch is sized from
// the untimed warm-up. It returns the mean time per run and the row count.
// Each run drains the engine's cursor without materializing rows, so the
// timing covers exactly the work the serving layer pays: enumeration, not
// result buffering.
func Measure(reps int, e engine.Engine, q *query.BGP) (time.Duration, int, error) {
	if reps < 1 {
		reps = 1
	}
	// Pay any GC debt accumulated by earlier workloads before timing starts:
	// without this, whichever rep happens to trip the collector absorbs the
	// previous engine's allocation bill. One collection up front (rather
	// than per rep) because a GC cycle also flushes the CPU caches — run
	// per-rep it quadruples microsecond-scale queries whose real cost is
	// cache-warm trie descent. The untimed warmup re-warms those caches and
	// builds any lazy indexes outside the measurement; its second run, warm,
	// sizes the batch (a run under a microsecond counts as one).
	runtime.GC()
	var rows int
	var per time.Duration
	for range 2 {
		start := time.Now()
		n, err := drain(e, q)
		if err != nil {
			return 0, 0, err
		}
		rows, per = n, max(time.Since(start), time.Microsecond)
	}
	batch := int((sampleSpan + per - 1) / per)
	times := make([]time.Duration, 0, reps)
	for range reps {
		start := time.Now()
		for range batch {
			if _, err := drain(e, q); err != nil {
				return 0, 0, err
			}
		}
		times = append(times, time.Since(start)/time.Duration(batch))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(times) >= 3 {
		times = times[1 : len(times)-1]
	}
	var total time.Duration
	for _, t := range times {
		total += t
	}
	return total / time.Duration(len(times)), rows, nil
}

// drain opens a cursor for q on e and counts its rows.
func drain(e engine.Engine, q *query.BGP) (int, error) {
	cur, err := e.Open(q, engine.ExecOpts{})
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for {
		_, err := cur.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		n++
	}
}

// --- Table I -----------------------------------------------------------------

// TableIQueries are the LUBM queries the paper reports in Table I.
var TableIQueries = []int{1, 2, 4, 7, 8, 14}

// TableIRow holds one query's optimization speedups: the factor by which
// query time grows when the named optimization is disabled (all others
// enabled) — i.e. the benefit of adding that optimization last.
type TableIRow struct {
	Query      int
	Layout     float64
	Attribute  float64
	GHD        float64
	BaseMillis float64 // fully optimized runtime
	Rows       int
}

// TableI regenerates the Table I ablation on the given dataset.
func TableI(st *store.Store, cfg Config) ([]TableIRow, error) {
	var out []TableIRow
	for _, qn := range TableIQueries {
		q, err := query.ParseSPARQL(lubm.Query(qn, cfg.Scale))
		if err != nil {
			return nil, err
		}
		full := engines.NewEmptyHeaded(st, plan.AllOptimizations)
		baseTime, rows, err := Measure(cfg.Reps, full, q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", qn, err)
		}
		row := TableIRow{Query: qn, BaseMillis: ms(baseTime), Rows: rows}

		ablations := []struct {
			out  *float64
			opts plan.Options
		}{
			{&row.Layout, plan.Options{Layout: false, AttributeReorder: true, GHDPushdown: true}},
			{&row.Attribute, plan.Options{Layout: true, AttributeReorder: false, GHDPushdown: true}},
			{&row.GHD, plan.Options{Layout: true, AttributeReorder: true, GHDPushdown: false}},
		}
		for _, ab := range ablations {
			t, _, err := Measure(cfg.Reps, engines.NewEmptyHeaded(st, ab.opts), q)
			if err != nil {
				return nil, fmt.Errorf("query %d ablation: %w", qn, err)
			}
			*ab.out = float64(t) / float64(baseTime)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatTableI renders rows in the paper's Table I layout.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %11s %8s %12s %8s\n",
		"Query", "+Layout", "+Attribute", "+GHD", "base(ms)", "rows")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %9.2fx %10.2fx %7.2fx %12.3f %8d\n",
			r.Query, r.Layout, r.Attribute, r.GHD, r.BaseMillis, r.Rows)
	}
	return b.String()
}

// --- Table II ----------------------------------------------------------------

// TableIIRow holds one query's results across engines.
type TableIIRow struct {
	Query      int
	BestMillis float64
	Best       string             // engine with the best time
	Relative   map[string]float64 // engine -> time / best time
	Rows       int
}

// TableII regenerates the Table II end-to-end comparison. Engines are
// constructed once (index build excluded from timings, as in the paper).
func TableII(st *store.Store, cfg Config) ([]TableIIRow, []string, error) {
	engs := engines.TableII(st)
	names := make([]string, len(engs))
	for i, e := range engs {
		names[i] = e.Name()
	}
	var out []TableIIRow
	for _, qn := range lubm.QueryNumbers {
		q, err := query.ParseSPARQL(lubm.Query(qn, cfg.Scale))
		if err != nil {
			return nil, nil, err
		}
		times := map[string]time.Duration{}
		rows := 0
		for _, e := range engs {
			t, r, err := Measure(cfg.Reps, e, q)
			if err != nil {
				return nil, nil, fmt.Errorf("query %d on %s: %w", qn, e.Name(), err)
			}
			times[e.Name()] = t
			rows = r
		}
		row := TableIIRow{Query: qn, Relative: map[string]float64{}, Rows: rows}
		best := time.Duration(0)
		for name, t := range times {
			if best == 0 || t < best {
				best = t
				row.Best = name
			}
		}
		row.BestMillis = ms(best)
		for name, t := range times {
			row.Relative[name] = float64(t) / float64(best)
		}
		out = append(out, row)
	}
	return out, names, nil
}

// FormatTableII renders rows in the paper's Table II layout: best absolute
// time plus relative factors per engine.
func FormatTableII(rows []TableIIRow, names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s", "Query", "Best(ms)")
	for _, n := range names {
		fmt.Fprintf(&b, " %12s", n)
	}
	fmt.Fprintf(&b, " %10s\n", "rows")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-5d %12.3f", r.Query, r.BestMillis)
		for _, n := range names {
			fmt.Fprintf(&b, " %11.2fx", r.Relative[n])
		}
		fmt.Fprintf(&b, " %10d\n", r.Rows)
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
