package plan_test

import (
	"strings"
	"testing"

	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// symStore holds a few edges of <p> and <q> and one typed vertex: enough
// for every shape below to compile to a non-empty plan.
func symStore() *store.Store {
	return store.FromTriples([]rdf.Triple{
		t3("a", "p", "b"), t3("b", "p", "c"), t3("c", "p", "a"), t3("a", "p", "a"),
		t3("b", "q", "a"), t3("c", "q", "b"),
		t3("a", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "C"),
	})
}

// clique writes the k-clique over <p> in both directions: every ordered
// pair of distinct variables is a pattern.
func clique(k int) string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE {")
	for i := range k {
		for j := range k {
			if i != j {
				b.WriteString(" ?v" + string(rune('0'+i)) + " <p> ?v" + string(rune('0'+j)) + " .")
			}
		}
	}
	b.WriteString(" }")
	return b.String()
}

// TestAutomorphismGroups checks the group search on the shapes it must tell
// apart — a rotation group, a reflection, a predicate or a constant that
// breaks the symmetry, a self-loop — and which groups a plan keeps: none
// over a variable predicate, one of 24 elements, none of 120.
func TestAutomorphismGroups(t *testing.T) {
	st := symStore()
	cases := []struct {
		name  string
		text  string
		order int // |G|; 0 = not searched (a variable predicate)
		kept  bool
		// oneNode skips compiling: whether the group is kept is asked of a
		// one-node root, the shape's GHD search being too slow for a test.
		oneNode bool
	}{
		{"triangle", `SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <p> ?x }`, 3, true, false},
		{"four-cycle", `SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d . ?d <p> ?a }`, 4, true, false},
		{"two-cycle", `SELECT * WHERE { ?a <p> ?b . ?b <p> ?a }`, 2, true, false},
		{"triangle-two-predicates", `SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <q> ?x }`, 1, false, false},
		{"triangle-typed-vertex", `SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <p> ?x . ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <C> }`, 1, false, false},
		{"repeated-variable", `SELECT * WHERE { ?x <p> ?x . ?x <p> ?y }`, 1, false, false},
		{"variable-predicate", `SELECT * WHERE { ?x ?r ?y . ?y ?r ?x }`, 0, false, false},
		{"four-clique", clique(4), 24, true, false},
		{"five-clique", clique(5), 120, false, true},
	}
	for _, tc := range cases {
		q := query.MustParseSPARQL(tc.text)
		if tc.order > 0 {
			if _, group := plan.Automorphisms(q, 1000); len(group) != tc.order {
				t.Errorf("%s: |G| = %d, want %d", tc.name, len(group), tc.order)
			}
		}
		if tc.oneNode {
			if plan.KeepsGroup(q) != tc.kept {
				t.Errorf("%s: a one-node plan keeps a group: %v, want %v", tc.name, !tc.kept, tc.kept)
			}
			continue
		}
		p, err := plan.Compile(q, st, plan.AllOptimizations)
		if err != nil || p.Empty {
			t.Fatalf("%s: compile: %v (empty %v)", tc.name, err, p != nil && p.Empty)
		}
		if kept := p.Sym != nil; kept != tc.kept {
			t.Errorf("%s: plan keeps a group: %v, want %v\n%s", tc.name, kept, tc.kept, p)
		}
		if p.Sym != nil && len(p.Sym) != tc.order {
			t.Errorf("%s: plan keeps %d elements, want %d", tc.name, len(p.Sym), tc.order)
		}
	}
}

// TestLUBMHasNoGroup checks that the group search returns at once on every
// LUBM query — no two of its constant-free patterns share a predicate — so
// that compiling LUBM costs what it did before.
func TestLUBMHasNoGroup(t *testing.T) {
	st := lubmStore(t)
	for _, n := range lubm.QueryNumbers {
		q := query.MustParseSPARQL(lubm.Query(n, 1))
		if plan.SharesPredicate(q) {
			t.Errorf("Q%d: two constant-free patterns share a predicate", n)
		}
		if p := compile(t, st, lubm.Query(n, 1), plan.AllOptimizations); p.Sym != nil {
			t.Errorf("Q%d: plan keeps a group: %s", n, p)
		}
	}
}

// TestPlanStringShowsGroup pins how a kept group renders — its order, its
// generators in cycle notation, the bound — and that a plan without one
// renders as before.
func TestPlanStringShowsGroup(t *testing.T) {
	st := symStore()
	for _, tc := range []struct{ text, want string }{
		{`SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <p> ?x }`,
			"Plan{order=[x y z] select=[x y z] sym=3 (x y z) bound y,z≥x}\n  node vars=[x y z] rels=p0,p1,p2\n"},
		{`SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d . ?d <p> ?a }`,
			"Plan{order=[a b c d] select=[a b c d] sym=4 (a b c d) bound b,c,d≥a}\n  node vars=[a b c d] rels=p0,p1,p2,p3\n"},
		{`SELECT * WHERE { ?a <p> ?b . ?b <p> ?a }`,
			"Plan{order=[a b] select=[a b] sym=2 (a b) bound b≥a}\n  node vars=[a b] rels=p0,p1\n"},
	} {
		if got := compile(t, st, tc.text, plan.AllOptimizations).String(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.text, got, tc.want)
		}
	}
	const q2 = "Plan{order=[$0.2 $1.2 $2.2 Z Y X] select=[X Y Z]}\n" +
		"  node vars=[Z Y X] rels=p3,p4,p5\n" +
		"    node vars=[X] iface=[X] rels=p0\n" +
		"    node vars=[Y] iface=[Y] rels=p1\n" +
		"    node vars=[Z] iface=[Z] rels=p2\n"
	if got := compile(t, lubmStore(t), lubm.Query(2, 1), plan.AllOptimizations).String(); got != q2 {
		t.Errorf("LUBM Q2:\n got %q\nwant %q", got, q2)
	}
}
