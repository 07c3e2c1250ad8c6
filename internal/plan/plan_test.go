package plan_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
)

func t3(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

func lubmStore(t *testing.T) *store.Store {
	t.Helper()
	return store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
}

func compile(t *testing.T, st *store.Store, text string, opts plan.Options) *plan.Plan {
	t.Helper()
	q, err := query.ParseSPARQL(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := plan.Compile(q, st, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestMissingConstantShortCircuits(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{t3("a", "p", "b")})
	p := compile(t, st, `SELECT ?x WHERE { ?x <p> <zzz> . }`, plan.AllOptimizations)
	if !p.Empty {
		t.Errorf("plan with unknown constant should be Empty")
	}
	p = compile(t, st, `SELECT ?x WHERE { ?x <qqq> ?y . }`, plan.AllOptimizations)
	if !p.Empty {
		t.Errorf("plan with unknown predicate should be Empty")
	}
	if !strings.Contains(p.String(), "empty") {
		t.Errorf("String of empty plan = %q", p.String())
	}
}

func TestSelectionFirstGlobalOrderQuery2(t *testing.T) {
	st := lubmStore(t)
	p := compile(t, st, lubm.Query(2, 1), plan.AllOptimizations)
	// The paper's §III-B1 example: the global order for query 2 is
	// [a b c x y z] — all three selection vertices first.
	if len(p.GlobalOrder) != 6 {
		t.Fatalf("global order = %v", p.GlobalOrder)
	}
	for i := 0; i < 3; i++ {
		if !strings.HasPrefix(p.GlobalOrder[i], "$") {
			t.Errorf("position %d of global order = %q, want a selection vertex (%v)",
				i, p.GlobalOrder[i], p.GlobalOrder)
		}
	}
	for i := 3; i < 6; i++ {
		if strings.HasPrefix(p.GlobalOrder[i], "$") {
			t.Errorf("position %d of global order = %q, want a variable", i, p.GlobalOrder[i])
		}
	}
	// Root node is the triangle.
	if !reflect.DeepEqual(len(p.Root.Rels), 3) || len(p.Root.Children) != 3 {
		t.Errorf("Q2 root shape: %d rels, %d children\n%s", len(p.Root.Rels), len(p.Root.Children), p)
	}
}

func TestNaturalOrderWithoutAttributeReorder(t *testing.T) {
	st := lubmStore(t)
	p := compile(t, st, lubm.Query(14, 1), plan.NoOptimizations)
	// Q14 is type(X, 'UndergraduateStudent'): natural order puts the
	// subject variable X before the selection vertex (the slow plan the
	// +Attribute column of Table I measures against).
	if len(p.GlobalOrder) != 2 {
		t.Fatalf("global order = %v", p.GlobalOrder)
	}
	if p.GlobalOrder[0] != "X" || !strings.HasPrefix(p.GlobalOrder[1], "$") {
		t.Errorf("natural order = %v, want [X $...]", p.GlobalOrder)
	}
	// With reordering the selection comes first.
	p = compile(t, st, lubm.Query(14, 1), plan.AllOptimizations)
	if !strings.HasPrefix(p.GlobalOrder[0], "$") || p.GlobalOrder[1] != "X" {
		t.Errorf("reordered = %v, want [$... X]", p.GlobalOrder)
	}
}

func TestInterfaceIsPrefixOfChildVars(t *testing.T) {
	st := lubmStore(t)
	for _, qn := range lubm.QueryNumbers {
		for _, opts := range []plan.Options{plan.AllOptimizations, plan.NoOptimizations} {
			p := compile(t, st, lubm.Query(qn, 1), opts)
			if p.Empty {
				continue
			}
			for _, n := range p.Nodes() {
				for i, v := range n.Interface {
					if n.Vars[i] != v {
						t.Errorf("Q%d: interface %v not a prefix of vars %v", qn, n.Interface, n.Vars)
					}
				}
			}
		}
	}
}

func TestRelationLevelsFollowNodeOrder(t *testing.T) {
	st := lubmStore(t)
	for _, qn := range lubm.QueryNumbers {
		p := compile(t, st, lubm.Query(qn, 1), plan.AllOptimizations)
		if p.Empty {
			continue
		}
		for _, n := range p.Nodes() {
			pos := map[string]int{}
			for i, a := range n.Attrs {
				pos[a.Name] = i
			}
			for _, rel := range n.Rels {
				last := -1
				for _, lv := range rel.Levels {
					at, ok := pos[lv.Name]
					if !ok {
						t.Fatalf("Q%d: level attr %q not in node attrs", qn, lv.Name)
					}
					if at < last {
						t.Errorf("Q%d: relation levels out of node order: %v", qn, rel.Levels)
					}
					last = at
				}
			}
		}
	}
}

func TestPlanStringRendering(t *testing.T) {
	st := lubmStore(t)
	p := compile(t, st, lubm.Query(2, 1), plan.AllOptimizations)
	s := p.String()
	for _, want := range []string{"order=", "select=[X Y Z]", "node vars="} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func TestVariablePredicatePlansUseTripleTable(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{t3("a", "p", "b")})
	p := compile(t, st, `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`, plan.AllOptimizations)
	if p.Empty || len(p.Root.Rels) != 1 || !p.Root.Rels[0].UseTriples {
		t.Errorf("variable-predicate plan = %s", p)
	}
	if len(p.Root.Rels[0].Levels) != 3 {
		t.Errorf("triple relation levels = %v", p.Root.Rels[0].Levels)
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	st := lubmStore(t)
	q := &query.BGP{Select: []string{"x"}}
	if _, err := plan.Compile(q, st, plan.AllOptimizations); err == nil {
		t.Errorf("empty BGP accepted")
	}
}

// TestPlanRecordsPolicy: the plan carries the layout it runs with — the
// adaptive rule or uint arrays as Options.Layout says under Compile, uint
// arrays under CompileFlat — empty plans and bound copies included.
func TestPlanRecordsPolicy(t *testing.T) {
	st := lubmStore(t)
	absent := `SELECT ?x WHERE { ?x <http://absent.example/p> ?y }`
	for _, text := range []string{lubm.Query(2, 1), absent} {
		q := query.MustParseSPARQL(text)
		for _, tc := range []struct {
			layout bool
			want   set.Policy
		}{{false, set.PolicyUintOnly}, {true, set.PolicyAdaptive}} {
			p, err := plan.Compile(q, st, plan.Options{Layout: tc.layout, AttributeReorder: true})
			if err != nil {
				t.Fatal(err)
			}
			if p.Policy != tc.want {
				t.Errorf("Compile with Layout %v: plan policy %d, want %d (empty=%v)", tc.layout, p.Policy, tc.want, p.Empty)
			}
		}
		p, err := plan.CompileFlat(q, st)
		if err != nil {
			t.Fatal(err)
		}
		if p.Policy != set.PolicyUintOnly {
			t.Errorf("CompileFlat: plan policy %d, want uint (empty=%v)", p.Policy, p.Empty)
		}
	}
}

// TestMemoBounded: a Memo compiles each parsed query once and never holds
// more than its cap, however many distinct pointers it is handed.
func TestMemoBounded(t *testing.T) {
	var m plan.Memo
	compiles := 0
	compile := func(q *query.BGP) (*plan.Plan, error) {
		compiles++
		return &plan.Plan{Empty: true, Select: q.Select}, nil
	}
	q := query.MustParseSPARQL(`SELECT ?x WHERE { ?x <p> ?y }`)
	for i := 0; i < 2; i++ {
		if _, err := m.Get(q, compile); err != nil || compiles != 1 {
			t.Fatalf("Get %d: %d compiles, err=%v", i, compiles, err)
		}
	}
	for i := 0; i < plan.MemoCap+100; i++ {
		if _, err := m.Get(&query.BGP{}, compile); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != plan.MemoCap {
		t.Fatalf("memo holds %d plans, want its cap %d", m.Len(), plan.MemoCap)
	}
	if compiles != plan.MemoCap+101 {
		t.Fatalf("%d compiles, want one per distinct query", compiles)
	}
}
