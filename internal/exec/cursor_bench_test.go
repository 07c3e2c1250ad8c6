package exec_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

// benchPlan compiles LUBM Q2 (the cyclic workhorse) over scale 1.
func benchPlan(b *testing.B) (*plan.Plan, *store.Store) {
	b.Helper()
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	q := query.MustParseSPARQL(lubm.Query(2, 1))
	p, err := plan.Compile(q, st, plan.AllOptimizations)
	if err != nil {
		b.Fatal(err)
	}
	return p, st
}

// BenchmarkCursorDrain measures the full streaming enumeration: open the
// cursor, pull every row, close. This is the serving layer's hot path; a
// regression in the generator hand-off or the joiner's emit contract shows
// up here first.
func BenchmarkCursorDrain(b *testing.B) {
	p, st := benchPlan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := exec.Open(p, st, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			_, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows++
		}
		cur.Close()
		if rows == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkCursorFirstRow measures time-to-first-row with an early close —
// the latency a streaming client sees before the first byte, and the cost
// of abandoning the rest.
func BenchmarkCursorFirstRow(b *testing.B) {
	p, st := benchPlan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := exec.Open(p, st, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cur.Next(); err != nil {
			b.Fatal(err)
		}
		cur.Close()
	}
}

// BenchmarkCursorMaxRows measures a capped enumeration (the server's
// MaxRows protection): the exactness probe costs one extra row, not a full
// run.
func BenchmarkCursorMaxRows(b *testing.B) {
	p, st := benchPlan(b)
	for _, cap := range []int{1, 100} {
		b.Run(fmt.Sprintf("max=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exec.RunOpts(p, st, exec.Options{MaxRows: cap})
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != cap {
					b.Fatalf("rows = %d", res.Len())
				}
			}
		})
	}
}

// BenchmarkLeapfrogJoin measures the leapfrog multiway-intersection core on
// the join shapes that stress it: the cyclic triangle-bearing Q9 (three
// patterns sharing variables pairwise — every variable level leapfrogs over
// multiple iterators) and star-shaped Q2 (one root variable intersected
// across three relations). CI runs this once per PR so the inner loop stays
// exercised; the benchmark's engine.drain_us row tracks served join cost.
func BenchmarkLeapfrogJoin(b *testing.B) {
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	for _, tc := range []struct {
		name string
		qnum int
	}{{"q2_star", 2}, {"q9_cyclic", 9}} {
		q := query.MustParseSPARQL(lubm.Query(tc.qnum, 1))
		p, err := plan.Compile(q, st, plan.AllOptimizations)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the lazy tries so the benchmark isolates the join.
		if _, err := exec.Run(p, st, set.PolicyAuto); err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur, err := exec.Open(p, st, exec.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for {
					_, err := cur.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				cur.Close()
			}
		})
	}
}
