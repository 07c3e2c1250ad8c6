package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// TestParallelMatchesSequentialOnLUBM runs every LUBM query with 2, 4 and 7
// workers under both layouts. Under the uint layout Q7's join ends in the
// fused tail at its first variable, the attribute the workers partition
// on, so the tail must filter its matches to each worker's residue class.
func TestParallelMatchesSequentialOnLUBM(t *testing.T) {
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	for _, layout := range []bool{true, false} {
		base := core.AllOptimizations
		base.Layout = layout
		seq := core.New(st, base)
		for _, workers := range []int{2, 4, 7} {
			opts := base
			opts.Workers = workers
			par := core.New(st, opts)
			for _, qn := range lubm.QueryNumbers {
				q := query.MustParseSPARQL(lubm.Query(qn, 1))
				want, err := engine.Execute(seq, q)
				if err != nil {
					t.Fatalf("Q%d sequential: %v", qn, err)
				}
				tails, untrack := exec.CountTails()
				got, err := engine.Execute(par, q)
				untrack()
				if err != nil {
					t.Fatalf("Q%d layout=%v workers=%d: %v", qn, layout, workers, err)
				}
				if got.Canonical() != want.Canonical() {
					t.Errorf("Q%d layout=%v workers=%d: %d rows, want %d", qn, layout, workers, got.Len(), want.Len())
				}
				if qn == 7 && !layout && tails(1, 1) == 0 {
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
		seq := core.New(st, core.AllOptimizations)
		opts := core.AllOptimizations
		opts.Workers = 4
		par := core.New(st, opts)
		for i, shape := range shapes {
			q := query.MustParseSPARQL(shape)
			want, err := engine.Execute(seq, q)
			if err != nil {
				t.Fatalf("trial %d shape %d: %v", trial, i, err)
			}
			got, err := engine.Execute(par, q)
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
	opts := core.AllOptimizations
	opts.Workers = 4
	e := core.New(st, opts)
	q := query.MustParseSPARQL(lubm.Query(8, 1))
	first, err := engine.Execute(e, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := engine.Execute(e, q)
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
	for _, workers := range []int{1, 4, 8} {
		opts := core.AllOptimizations
		opts.Workers = workers
		e := core.New(st, opts)
		if _, err := engine.Execute(e, q); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Execute(e, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
