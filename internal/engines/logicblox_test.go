package engines_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

func t3(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

func build() (*engines.Engine, *store.Store) {
	st := store.FromTriples([]rdf.Triple{
		t3("a", "e", "b"), t3("b", "e", "c"), t3("c", "e", "a"),
		t3("a", "type", "T"),
	})
	return engines.NewLogicBlox(st), st
}

func TestFlatPlanSingleNode(t *testing.T) {
	e, _ := build()
	q := query.MustParseSPARQL(`SELECT ?x ?y ?z WHERE { ?x <e> ?y . ?y <e> ?z . ?z <e> ?x . }`)
	p, err := e.Plan(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p.Root == nil || len(p.Root.Children) != 0 {
		t.Fatalf("LogicBlox plan must be a single flat node: %s", p)
	}
	if len(p.Root.Rels) != 3 {
		t.Errorf("rels = %d", len(p.Root.Rels))
	}
	// Natural attribute order: first appearance.
	if p.GlobalOrder[0] != "x" || p.GlobalOrder[1] != "y" || p.GlobalOrder[2] != "z" {
		t.Errorf("global order = %v", p.GlobalOrder)
	}
}

func TestExecuteTriangle(t *testing.T) {
	e, _ := build()
	q := query.MustParseSPARQL(`SELECT ?x ?y ?z WHERE { ?x <e> ?y . ?y <e> ?z . ?z <e> ?x . }`)
	res, err := engine.Execute(e, q)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.Len() != 3 {
		t.Errorf("triangle rows = %d, want 3 (rotations)", res.Len())
	}
	// Plan cache path.
	res2, err := engine.Execute(e, q)
	if err != nil || res2.Canonical() != res.Canonical() {
		t.Errorf("cached execution differs: %v", err)
	}
}

// TestTriangleKeepsLeapfrogOrder checks that the LogicBlox model stays plain
// leapfrog: its flat plans keep no automorphism group, so a triangle over a
// random graph with self-loops and 2-cycles comes out the way leapfrog
// enumerates it — every directed cycle once per rotation, in ascending
// order of (?x, ?y, ?z) — where the EmptyHeaded engine emits each cycle's
// rotations together.
func TestTriangleKeepsLeapfrogOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var triples []rdf.Triple
	for range 400 {
		s, o := rng.Intn(40), rng.Intn(40)
		triples = append(triples, t3(fmt.Sprint("n", s), "e", fmt.Sprint("n", o)), t3(fmt.Sprint("n", o), "e", fmt.Sprint("n", s)))
	}
	e := engines.NewLogicBlox(store.FromTriples(triples))
	q := query.MustParseSPARQL(`SELECT ?x ?y ?z WHERE { ?x <e> ?y . ?y <e> ?z . ?z <e> ?x . }`)
	p, err := e.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sym != nil {
		t.Fatalf("LogicBlox plan keeps a group: %s", p)
	}
	res, err := engine.Execute(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() < 100 {
		t.Fatalf("%d rows; the test tests little", res.Len())
	}
	if !slices.IsSortedFunc(res.Rows, slices.Compare) {
		t.Errorf("rows are not in leapfrog order")
	}
}

func TestMissingConstantsShortCircuit(t *testing.T) {
	e, _ := build()
	for _, text := range []string{
		`SELECT ?x WHERE { ?x <nope> ?y . }`,
		`SELECT ?x WHERE { ?x <e> <nope> . }`,
		`SELECT ?x WHERE { ?x ?p <nope> . }`,
	} {
		res, err := engine.Execute(e, query.MustParseSPARQL(text))
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if res.Len() != 0 {
			t.Errorf("%s: rows = %d", text, res.Len())
		}
	}
}

func TestSelectionsStayAtNaturalPositions(t *testing.T) {
	e, _ := build()
	q := query.MustParseSPARQL(`SELECT ?x WHERE { ?x <type> <T> . }`)
	p, err := e.Plan(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	// Natural order: subject variable first, then the selection vertex —
	// the un-hoisted order that makes LogicBlox slow on selective scans.
	if len(p.GlobalOrder) != 2 || p.GlobalOrder[0] != "x" {
		t.Errorf("global order = %v, want [x $...]", p.GlobalOrder)
	}
	res, err := engine.Execute(e, q)
	if err != nil || res.Len() != 1 {
		t.Errorf("rows = %d err %v", res.Len(), err)
	}
}

func TestVariablePredicate(t *testing.T) {
	e, _ := build()
	res, err := engine.Execute(e, query.MustParseSPARQL(`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`))
	if err != nil || res.Len() != 4 {
		t.Errorf("all-triples rows = %d err %v", res.Len(), err)
	}
}

func TestName(t *testing.T) {
	e, _ := build()
	if e.Name() != "logicblox" {
		t.Errorf("name wrong")
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	e, _ := build()
	if _, err := engine.Execute(e, &query.BGP{Select: []string{"x"}}); err == nil {
		t.Errorf("invalid query accepted")
	}
}
