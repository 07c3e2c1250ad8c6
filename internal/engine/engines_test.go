package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/monetdb"
	"repro/internal/engine/naive"
	"repro/internal/engine/rdf3x"
	"repro/internal/engine/triplebit"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

func allEngines(st *store.Store) []engine.Engine {
	return []engine.Engine{
		engines.NewEmptyHeaded(st, plan.AllOptimizations),
		named{engines.NewEmptyHeaded(st, plan.NoOptimizations), "emptyheaded-noopt"},
		engines.NewLogicBlox(st),
		monetdb.New(st),
		rdf3x.New(st),
		triplebit.New(st),
	}
}

// named reports an engine under another name, telling configurations of
// one engine apart in failure messages.
type named struct {
	engine.Engine
	name string
}

func (n named) Name() string { return n.name }

func t3(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

// checkAll runs every engine on every query and requires the result
// multiset to equal the naive reference.
func checkAll(t *testing.T, st *store.Store, queries map[string]string) {
	t.Helper()
	ref := naive.New(st)
	engines := allEngines(st)
	for name, text := range queries {
		q, err := query.ParseSPARQL(text)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		want, err := engine.Execute(ref, q)
		if err != nil {
			t.Fatalf("%s: naive: %v", name, err)
		}
		wantC := want.Canonical()
		for _, e := range engines {
			got, err := engine.Execute(e, q)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, e.Name(), err)
			}
			if got.Canonical() != wantC {
				t.Errorf("%s on %s: got %d rows, want %d rows", name, e.Name(), got.Len(), want.Len())
			}
		}
	}
}

func TestEnginesAgreeOnHandBuilt(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{
		t3("a", "knows", "b"), t3("b", "knows", "c"), t3("c", "knows", "a"),
		t3("a", "type", "Person"), t3("b", "type", "Person"), t3("c", "type", "Robot"),
		t3("a", "name", "alice"), t3("b", "name", "bob"),
		t3("d", "knows", "a"), t3("d", "type", "Person"),
	})
	checkAll(t, st, map[string]string{
		"triangle":      `SELECT ?x ?y ?z WHERE { ?x <knows> ?y . ?y <knows> ?z . ?z <knows> ?x . }`,
		"typed-knows":   `SELECT ?x ?y WHERE { ?x <type> <Person> . ?x <knows> ?y . }`,
		"star":          `SELECT ?x ?n ?y WHERE { ?x <type> <Person> . ?x <name> ?n . ?x <knows> ?y . }`,
		"const-object":  `SELECT ?x WHERE { ?x <knows> <a> . }`,
		"var-predicate": `SELECT ?p WHERE { <a> ?p <b> . }`,
		"missing":       `SELECT ?x WHERE { ?x <type> <Alien> . }`,
		"product":       `SELECT ?x ?y WHERE { ?x <name> <alice> . ?y <type> <Robot> . }`,
		"distinct":      `SELECT DISTINCT ?x WHERE { ?x <knows> ?y . }`,
	})
}

func TestEnginesAgreeOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []string{
		`SELECT ?x ?y ?z WHERE { ?x <e0> ?y . ?y <e1> ?z . ?z <e0> ?x . }`,
		`SELECT ?x ?y ?z ?w WHERE { ?x <e0> ?y . ?y <e1> ?z . ?z <e2> ?w . }`,
		`SELECT ?x ?y WHERE { ?x <e0> ?y . ?x <e1> ?y . }`,
		`SELECT ?x WHERE { ?x <e0> <n2> . ?x <e1> ?y . }`,
		`SELECT ?x ?y ?z WHERE { ?x <e0> ?y . ?x <e1> ?z . ?y <e2> ?z . }`,
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`,
		`SELECT ?x WHERE { ?x <e0> ?x . }`,
	}
	for trial := 0; trial < 5; trial++ {
		n := 6 + rng.Intn(10)
		var triples []rdf.Triple
		for i := 0; i < 50; i++ {
			triples = append(triples, t3(
				fmt.Sprintf("n%d", rng.Intn(n)),
				fmt.Sprintf("e%d", rng.Intn(3)),
				fmt.Sprintf("n%d", rng.Intn(n)),
			))
		}
		st := store.FromTriples(triples)
		queries := map[string]string{}
		for i, s := range shapes {
			queries[fmt.Sprintf("t%d-q%d", trial, i)] = s
		}
		checkAll(t, st, queries)
	}
}

func TestEnginesAgreeOnLUBM(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scale := 1
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: scale}))
	ref := naive.New(st)
	engines := allEngines(st)
	for _, n := range lubm.QueryNumbers {
		q := query.MustParseSPARQL(lubm.Query(n, scale))
		want, err := engine.Execute(ref, q)
		if err != nil {
			t.Fatalf("Q%d naive: %v", n, err)
		}
		wantC := want.Canonical()
		for _, e := range engines {
			got, err := engine.Execute(e, q)
			if err != nil {
				t.Fatalf("Q%d on %s: %v", n, e.Name(), err)
			}
			if got.Canonical() != wantC {
				t.Errorf("Q%d on %s: got %d rows, want %d", n, e.Name(), got.Len(), want.Len())
			}
		}
		t.Logf("Q%d: %d rows", n, want.Len())
	}
}

func TestResultCanonicalAndDecode(t *testing.T) {
	r := &engine.Result{Vars: []string{"x"}, Rows: [][]uint32{{3}, {1}, {2}, {1}}}
	if r.Len() != 4 {
		t.Errorf("Len = %d", r.Len())
	}
	want := "1\n1\n2\n3"
	if got := r.Canonical(); got != want {
		t.Errorf("Canonical = %q, want %q", got, want)
	}
	r2 := &engine.Result{Vars: []string{"x", "y"}, Rows: [][]uint32{{0, 10}}}
	if got := r2.Canonical(); got != "0,10" {
		t.Errorf("Canonical = %q", got)
	}
}
