package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/naive"
	"repro/internal/engines"
	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// allOptionCombos enumerates all 8 optimization configurations.
func allOptionCombos() []plan.Options {
	var out []plan.Options
	for mask := 0; mask < 8; mask++ {
		out = append(out, plan.Options{
			Layout:           mask&1 != 0,
			AttributeReorder: mask&2 != 0,
			GHDPushdown:      mask&4 != 0,
		})
	}
	return out
}

func iri(s string) rdf.Term { return rdf.NewIRI(s) }

func t3(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

// checkAgainstNaive asserts that every optimization combo of the
// emptyheaded engine returns the same result multiset as the reference
// engine.
func checkAgainstNaive(t *testing.T, st *store.Store, queries map[string]string) {
	t.Helper()
	ref := naive.New(st)
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
		for _, opts := range allOptionCombos() {
			eh := engines.NewEmptyHeaded(st, opts)
			got, err := engine.Execute(eh, q)
			if err != nil {
				t.Fatalf("%s opts=%+v: execute: %v", name, opts, err)
			}
			if got.Canonical() != wantC {
				t.Errorf("%s opts=%+v: result mismatch: got %d rows, want %d rows\ngot:\n%.400s\nwant:\n%.400s",
					name, opts, got.Len(), want.Len(), got.Canonical(), wantC)
			}
		}
	}
}

func TestHandBuiltTriangle(t *testing.T) {
	// A graph with exactly two triangles plus noise edges.
	st := store.FromTriples([]rdf.Triple{
		t3("a", "e", "b"), t3("b", "e", "c"), t3("c", "e", "a"), // triangle 1
		t3("x", "e", "y"), t3("y", "e", "z"), t3("z", "e", "x"), // triangle 2
		t3("a", "e", "x"), t3("p", "e", "q"), // noise
	})
	checkAgainstNaive(t, st, map[string]string{
		"triangle": `SELECT ?x ?y ?z WHERE { ?x <e> ?y . ?y <e> ?z . ?z <e> ?x . }`,
		"path2":    `SELECT ?x ?y ?z WHERE { ?x <e> ?y . ?y <e> ?z . }`,
		"out-in":   `SELECT ?x WHERE { ?x <e> ?y . ?z <e> ?x . }`,
	})
}

func TestSelectionsAndStars(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{
		t3("s1", "type", "Student"), t3("s2", "type", "Student"), t3("s3", "type", "Teacher"),
		t3("s1", "member", "d1"), t3("s2", "member", "d2"), t3("s3", "member", "d1"),
		t3("s1", "takes", "c1"), t3("s1", "takes", "c2"), t3("s2", "takes", "c1"),
		t3("d1", "sub", "u1"), t3("d2", "sub", "u1"),
	})
	checkAgainstNaive(t, st, map[string]string{
		"type-scan":     `SELECT ?x WHERE { ?x <type> <Student> . }`,
		"type+member":   `SELECT ?x WHERE { ?x <type> <Student> . ?x <member> <d1> . }`,
		"star":          `SELECT ?x ?c ?d WHERE { ?x <type> <Student> . ?x <takes> ?c . ?x <member> ?d . }`,
		"chain":         `SELECT ?x ?d ?u WHERE { ?x <member> ?d . ?d <sub> ?u . }`,
		"const-subject": `SELECT ?c WHERE { <s1> <takes> ?c . }`,
		"missing-const": `SELECT ?x WHERE { ?x <type> <Nonexistent> . }`,
		"missing-pred":  `SELECT ?x WHERE { ?x <nope> ?y . }`,
		"distinct":      `SELECT DISTINCT ?d WHERE { ?x <member> ?d . ?x <takes> ?c . }`,
		"projection":    `SELECT ?x WHERE { ?x <takes> ?c . }`,
	})
}

func TestFullyConstantPatterns(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{
		t3("s1", "takes", "c1"),
		t3("s1", "type", "Student"),
		t3("s2", "type", "Student"),
	})
	checkAgainstNaive(t, st, map[string]string{
		// The constant pattern matches: acts as a neutral filter.
		"const-true": `SELECT ?x WHERE { <s1> <takes> <c1> . ?x <type> <Student> . }`,
		// The constant pattern fails (absent triple with present terms).
		"const-false": `SELECT ?x WHERE { <s2> <takes> <c1> . ?x <type> <Student> . }`,
		// The constant pattern references an unknown term entirely.
		"const-unknown": `SELECT ?x WHERE { <s1> <takes> <c9> . ?x <type> <Student> . }`,
	})
}

func TestVariablePredicate(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{
		t3("a", "p1", "b"), t3("a", "p2", "c"), t3("b", "p1", "c"),
	})
	checkAgainstNaive(t, st, map[string]string{
		"all-triples": `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`,
		"pred-of-a":   `SELECT ?p ?o WHERE { <a> ?p ?o . }`,
		"pred-join":   `SELECT ?s ?p WHERE { ?s ?p <c> . }`,
	})
}

func TestSelfJoinRepeatedVariable(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{
		t3("a", "e", "a"), t3("a", "e", "b"), t3("b", "e", "b"), t3("c", "e", "d"),
	})
	checkAgainstNaive(t, st, map[string]string{
		"self-loop": `SELECT ?x WHERE { ?x <e> ?x . }`,
	})
}

func TestCartesianProduct(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{
		t3("a", "p", "b"), t3("c", "p", "d"),
		t3("x", "q", "y"), t3("z", "q", "w"),
	})
	checkAgainstNaive(t, st, map[string]string{
		"product": `SELECT ?a ?b ?c ?d WHERE { ?a <p> ?b . ?c <q> ?d . }`,
	})
}

func TestRandomGraphsRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(20160210))
	queryShapes := []string{
		`SELECT ?x ?y ?z WHERE { ?x <e0> ?y . ?y <e1> ?z . ?z <e0> ?x . }`,
		`SELECT ?x ?y WHERE { ?x <e0> ?y . ?x <e1> ?y . }`,
		`SELECT ?x ?y ?z ?w WHERE { ?x <e0> ?y . ?y <e1> ?z . ?z <e2> ?w . }`,
		`SELECT ?x WHERE { ?x <e0> <n3> . ?x <e1> ?y . }`,
		`SELECT ?x ?y WHERE { <n1> <e0> ?x . ?x <e1> ?y . ?y <e2> <n2> . }`,
		`SELECT ?x ?y ?z WHERE { ?x <e0> ?y . ?x <e1> ?z . ?y <e2> ?z . }`,
	}
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(8)
		var triples []rdf.Triple
		for i := 0; i < 60; i++ {
			s := fmt.Sprintf("n%d", rng.Intn(n))
			p := fmt.Sprintf("e%d", rng.Intn(3))
			o := fmt.Sprintf("n%d", rng.Intn(n))
			triples = append(triples, t3(s, p, o))
		}
		st := store.FromTriples(triples)
		queries := map[string]string{}
		for i, s := range queryShapes {
			queries[fmt.Sprintf("trial%d-q%d", trial, i)] = s
		}
		checkAgainstNaive(t, st, queries)
	}
}

func TestLUBMAllQueriesMatchNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	ref := naive.New(st)
	for _, n := range lubm.QueryNumbers {
		q := query.MustParseSPARQL(lubm.Query(n, 1))
		want, err := engine.Execute(ref, q)
		if err != nil {
			t.Fatalf("Q%d naive: %v", n, err)
		}
		// Check the two extreme configurations (all opts, no opts) plus
		// one mixed one; the full 8-combo sweep runs on smaller data.
		for _, opts := range []plan.Options{
			plan.AllOptimizations,
			plan.NoOptimizations,
			{Layout: true, GHDPushdown: true},
		} {
			got, err := engine.Execute(engines.NewEmptyHeaded(st, opts), q)
			if err != nil {
				t.Fatalf("Q%d opts=%+v: %v", n, opts, err)
			}
			if got.Canonical() != want.Canonical() {
				t.Errorf("Q%d opts=%+v: got %d rows, want %d rows", n, opts, got.Len(), want.Len())
			}
		}
	}
}

// TestOneRelationLeavesAreViewed: a leaf child that is one relation, its
// variables in trie level order, enters its parent as a view of the base
// trie, selection or not, and is never rebuilt by a join. It drains every
// query the plan golden pins (LUBM's 12 at scale 1 and the knows shapes)
// under the served plan and under its -GHD ablation: neither may rebuild
// such a leaf, the served plan never builds its root — the root's
// relations stream into the final join — and builds no more nodes than the
// ablation, and both return the naive engine's rows.
func TestOneRelationLeavesAreViewed(t *testing.T) {
	const k = `<http://bench/knows>`
	knows := knowsGraph(200, 1500, 1)
	lubm1 := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	noGHD := plan.AllOptimizations
	noGHD.GHDPushdown = false
	type testCase struct {
		name, text string
		st         *store.Store
	}
	var cases []testCase
	for _, n := range lubm.QueryNumbers {
		cases = append(cases, testCase{fmt.Sprintf("lubm q%d", n), lubm.Query(n, 1), lubm1})
	}
	for _, s := range []struct{ name, text string }{
		{"triangle", `SELECT ?x ?y ?z WHERE { ?x ` + k + ` ?y . ?y ` + k + ` ?z . ?z ` + k + ` ?x }`},
		{"4-cycle", `SELECT ?a ?b ?c ?d WHERE { ?a ` + k + ` ?b . ?b ` + k + ` ?c . ?c ` + k + ` ?d . ?d ` + k + ` ?a }`},
		{"lollipop", `SELECT ?a ?b ?c ?d WHERE { ?a ` + k + ` ?b . ?b ` + k + ` ?c . ?c ` + k + ` ?a . ?c ` + k + ` ?d }`},
		{"barbell", `SELECT ?a ?b ?c ?d ?e ?f WHERE { ?a ` + k + ` ?b . ?b ` + k + ` ?c . ?c ` + k + ` ?a . ?c ` + k + ` ?d . ?d ` + k + ` ?e . ?e ` + k + ` ?f . ?f ` + k + ` ?d }`},
		{"2-hop distinct", `SELECT DISTINCT ?x WHERE { ?x ` + k + ` ?y . ?y ` + k + ` ?z }`},
		{"variable predicate", `SELECT ?x ?p ?z WHERE { ?x ?p ?y . ?y ` + k + ` ?z }`},
		{"self-loop", `SELECT ?x WHERE { ?x ` + k + ` ?x }`},
	} {
		cases = append(cases, testCase{s.name, s.text, knows})
	}
	leaves := 0
	for _, tc := range cases {
		q := query.MustParseSPARQL(tc.text)
		want, err := engine.Execute(naive.New(tc.st), q)
		if err != nil {
			t.Fatal(err)
		}
		// drain runs the plan opts compile and returns the nodes it built.
		drain := func(opts plan.Options) (*plan.Plan, []*plan.Node) {
			e := engines.NewEmptyHeaded(tc.st, opts)
			p, err := e.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			oneRelLeaf := func(n *plan.Node) bool {
				return n != p.Root && len(n.Children) == 0 && len(n.Rels) == 1 && len(n.Rels[0].Levels) == len(n.Attrs)
			}
			for _, n := range p.Nodes() {
				if oneRelLeaf(n) {
					leaves++
				}
			}
			built, restore := exec.TrackMaterialized()
			got, err := engine.Collect(e.OpenPlan(p, engine.ExecOpts{}))
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if got.Canonical() != want.Canonical() {
				t.Errorf("%s: %d rows, want %d", tc.name, got.Len(), want.Len())
			}
			nodes := built()
			for _, n := range nodes {
				if oneRelLeaf(n) {
					t.Errorf("%s: leaf %v (pattern %d) was rebuilt by a join", tc.name, n.Vars, n.Rels[0].PatternIdx)
				}
			}
			return p, nodes
		}
		p, built := drain(plan.AllOptimizations)
		_, ablated := drain(noGHD)
		for _, n := range built {
			if n == p.Root {
				t.Errorf("%s: the served plan built its root %v", tc.name, n.Vars)
			}
		}
		if len(built) > len(ablated) {
			t.Errorf("%s: the served plan built %d nodes, its -GHD ablation %d", tc.name, len(built), len(ablated))
		}
	}
	if leaves < 4 {
		t.Fatalf("%d one-relation leaf children across the plans, want at least 4", leaves)
	}
}

func TestLUBMQuery11IsEmpty(t *testing.T) {
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	q := query.MustParseSPARQL(lubm.Query(11, 1))
	got, err := engine.Execute(engines.NewEmptyHeaded(st, plan.AllOptimizations), q)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got.Len() != 0 {
		t.Errorf("Q11 = %d rows, want 0 (no inference)", got.Len())
	}
}

func TestResultDecode(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{t3("a", "p", "b")})
	q := query.MustParseSPARQL(`SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	got, err := engine.Execute(engines.NewEmptyHeaded(st, plan.AllOptimizations), q)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	rows := got.Decode(st.Dict())
	if len(rows) != 1 || rows[0][0].Value != "a" || rows[0][1].Value != "b" {
		t.Errorf("decoded rows = %v", rows)
	}
}

var _ = engine.Result{} // keep the import for documentation symmetry
