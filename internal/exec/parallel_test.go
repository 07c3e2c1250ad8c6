package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// TestParallelMatchesSequentialOnLUBM runs every LUBM query with 2, 4 and 7
// workers on the emptyheaded engine under both layouts, on the logicblox
// engine's flat plans and on auto's per-query choice. Under the uint layout
// Q7's join ends in the fused tail at its first variable, the attribute the
// workers partition on, so the tail must filter its matches to each
// worker's residue class.
func TestParallelMatchesSequentialOnLUBM(t *testing.T) {
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	noLayout := plan.AllOptimizations
	noLayout.Layout = false
	for _, tc := range []struct {
		name string
		e    *engines.Engine
		// q7Tail marks the engine whose Q7 must end in the fused tail.
		q7Tail bool
	}{
		{"layout=true", engines.NewEmptyHeaded(st, plan.AllOptimizations), false},
		{"layout=false", engines.NewEmptyHeaded(st, noLayout), true},
		{"logicblox", engines.NewLogicBlox(st), false},
		{"auto", engines.NewAuto(st), false},
	} {
		for _, workers := range []int{2, 4, 7} {
			for _, qn := range lubm.QueryNumbers {
				q := query.MustParseSPARQL(lubm.Query(qn, 1))
				want, err := engine.Execute(tc.e, q)
				if err != nil {
					t.Fatalf("Q%d %s sequential: %v", qn, tc.name, err)
				}
				tails, untrack := exec.CountTails()
				got, err := executeWorkers(tc.e, q, workers)
				untrack()
				if err != nil {
					t.Fatalf("Q%d %s workers=%d: %v", qn, tc.name, workers, err)
				}
				if got.Canonical() != want.Canonical() {
					t.Errorf("Q%d %s workers=%d: %d rows, want %d", qn, tc.name, workers, got.Len(), want.Len())
				}
				if qn == 7 && tc.q7Tail && tails(1, 1) == 0 {
					t.Errorf("Q7 workers=%d: the join did not end in the tail", workers)
				}
			}
		}
	}
}

func TestParallelMatchesSequentialOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []string{
		`SELECT ?x ?y ?z WHERE { ?x <e0> ?y . ?y <e1> ?z . ?z <e0> ?x . }`,
		`SELECT DISTINCT ?x WHERE { ?x <e0> ?y . ?y <e1> ?z . }`,
		`SELECT ?x WHERE { ?x <e0> <n1> . ?x <e1> ?y . }`,
	}
	for trial := 0; trial < 4; trial++ {
		var triples []rdf.Triple
		n := 10 + rng.Intn(10)
		for i := 0; i < 80; i++ {
			triples = append(triples, rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("n%d", rng.Intn(n))),
				P: rdf.NewIRI(fmt.Sprintf("e%d", rng.Intn(2))),
				O: rdf.NewIRI(fmt.Sprintf("n%d", rng.Intn(n))),
			})
		}
		st := store.FromTriples(triples)
		e := engines.NewEmptyHeaded(st, plan.AllOptimizations)
		for i, shape := range shapes {
			q := query.MustParseSPARQL(shape)
			want, err := engine.Execute(e, q)
			if err != nil {
				t.Fatalf("trial %d shape %d: %v", trial, i, err)
			}
			got, err := executeWorkers(e, q, 4)
			if err != nil {
				t.Fatalf("trial %d shape %d parallel: %v", trial, i, err)
			}
			if got.Canonical() != want.Canonical() {
				t.Errorf("trial %d shape %d: parallel mismatch", trial, i)
			}
		}
	}
}

func TestParallelDeterministicRowOrder(t *testing.T) {
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	e := engines.NewEmptyHeaded(st, plan.AllOptimizations)
	q := query.MustParseSPARQL(lubm.Query(8, 1))
	first, err := executeWorkers(e, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := executeWorkers(e, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Rows) != len(first.Rows) {
			t.Fatalf("row count changed across runs")
		}
		for r := range again.Rows {
			for c := range again.Rows[r] {
				if again.Rows[r][c] != first.Rows[r][c] {
					t.Fatalf("row order not deterministic at row %d", r)
				}
			}
		}
	}
}

func BenchmarkParallelTriangle(b *testing.B) {
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 2}))
	q := query.MustParseSPARQL(lubm.Query(9, 2))
	e := engines.NewEmptyHeaded(st, plan.AllOptimizations)
	for _, workers := range []int{1, 4, 8} {
		if _, err := executeWorkers(e, q, workers); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := executeWorkers(e, q, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// executeWorkers runs q on e to completion with the given parallelism.
func executeWorkers(e engine.Engine, q *query.BGP, workers int) (*engine.Result, error) {
	return engine.Collect(e.Open(q, engine.ExecOpts{Workers: workers}))
}
