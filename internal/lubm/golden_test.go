package lubm_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// TestGoldenCardinalitiesScale1 locks the deterministic result
// cardinalities for LUBM(1) seed 0. If the generator's random stream or
// profile changes, this fails, and tables made earlier with cmd/benchtables
// (README "Benchmarks") no longer describe the data it generates.
func TestGoldenCardinalitiesScale1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	triples := lubm.Generate(lubm.Config{Universities: 1, Seed: 0})
	const wantTriples = 94620
	if len(triples) != wantTriples {
		t.Fatalf("LUBM(1) triple count = %d, want %d (the generator's stream changed)", len(triples), wantTriples)
	}
	st := store.FromTriples(triples)
	eng := engines.NewEmptyHeaded(st, plan.AllOptimizations)
	want := map[int]int{
		1:  5,
		2:  2063,
		3:  9,
		4:  11,
		5:  462,
		7:  25,
		8:  6622,
		9:  25,
		11: 0,
		12: 139,
		13: 2063,
		14: 6622,
	}
	for _, qn := range lubm.QueryNumbers {
		q := query.MustParseSPARQL(lubm.Query(qn, 1))
		res, err := engine.Execute(eng, q)
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		if res.Len() != want[qn] {
			t.Errorf("Q%d cardinality = %d, want %d", qn, res.Len(), want[qn])
		}
	}
}
