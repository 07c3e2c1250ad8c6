package engines

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// TestBindEqualsCompile guards the value-independence invariant the
// server's plan templates rest on: compiling a query depends on which
// positions carry constants and on predicate statistics, never on the
// constants' values. For every LUBM query plus a triangle and a
// variable-predicate star at LUBM 1, and for each of three compile
// functions — plan.Compile with every optimization, plan.Compile with the
// layout optimizer off, and plan.CompileFlat — each S/O constant is re-bound to values taken from the data and to an
// IRI absent from the dictionary; plan.Bind of the original query's plan
// must then equal a fresh compile of the re-bound text, nil-versus-empty
// slices included. The plan's automorphism group must be equal too: "sym"
// keeps one, and in "mirror" the two constants sit where swapping ?x and ?z
// would map the shape onto itself if they were equal, which re-binding one
// to the other's value makes them — the group must not change. When
// ROADMAP item 2 makes the root choice cardinality-driven this test fails,
// and templates must then add a cardinality bucket to their key.
func TestBindEqualsCompile(t *testing.T) {
	var triples []rdf.Triple
	b := store.NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: 1}, func(tr rdf.Triple) {
		triples = append(triples, tr)
		b.Add(tr)
	})
	st := b.Build()

	const prefixes = `PREFIX ub: <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#> `
	texts := map[string]string{
		"tri":    prefixes + `SELECT ?x ?y ?z WHERE { ?x ub:memberOf ?y . ?y ub:subOrganizationOf ?z . ?x ub:undergraduateDegreeFrom ?z }`,
		"vp":     `SELECT ?p ?o WHERE { <http://www.Department0.University0.edu> ?p ?o }`,
		"sym":    prefixes + `SELECT * WHERE { ?x ub:subOrganizationOf ?y . ?y ub:subOrganizationOf ?x . ?x ub:subOrganizationOf ?z . ?y ub:subOrganizationOf ?z . ?z <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ub:University }`,
		"mirror": prefixes + `SELECT * WHERE { ?x ub:advisor ?z . ?z ub:advisor ?x . ?x ub:memberOf <http://www.Department0.University0.edu> . ?z ub:memberOf <http://www.Department1.University0.edu> }`,
	}
	for _, n := range lubm.QueryNumbers {
		texts[fmt.Sprintf("q%d", n)] = lubm.Query(n, 1)
	}
	absent := rdf.NewIRI("http://absent.example/none")

	compilers := []struct {
		name    string
		compile compileFunc
	}{
		{"all", emptyHeaded(plan.AllOptimizations)},
		{"-Layout", emptyHeaded(plan.Options{AttributeReorder: true, GHDPushdown: true})},
		{"flat", plan.CompileFlat}, // keeps no automorphism group
	}

	for name, text := range texts {
		norm, _ := query.Normalize(query.MustParseSPARQL(text))
		for _, c := range compilers {
			tmpl, err := c.compile(norm, st)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			if tmpl.Empty {
				t.Fatalf("%s/%s: template compiled empty", name, c.name)
			}
			if (tmpl.Sym != nil) != (name == "sym" && c.name != "flat") {
				t.Fatalf("%s/%s: template keeps a group: %v", name, c.name, tmpl.Sym != nil)
			}
			check := func(label string, q *query.BGP) {
				t.Helper()
				want, err := c.compile(q, st)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := plan.Bind(tmpl, q, st.Dict())
				if got.Empty != want.Empty || got.Distinct != want.Distinct || got.Policy != want.Policy ||
					!reflect.DeepEqual(got.Select, want.Select) ||
					!reflect.DeepEqual(got.GlobalOrder, want.GlobalOrder) ||
					!reflect.DeepEqual(got.Root, want.Root) ||
					!reflect.DeepEqual(got.Sym, want.Sym) {
					t.Fatalf("%s: bound plan differs from compiled plan\n got: %s\nwant: %s", label, got, want)
				}
			}
			check(fmt.Sprintf("%s/%s unchanged", name, c.name), norm)
			for i, pat := range norm.Patterns {
				for pos, n := range []query.Node{pat.S, pat.P, pat.O} {
					if n.IsVar || pos == 1 {
						continue
					}
					values := dataValues(triples, pat.P, pos)
					if len(values) < 10 {
						t.Fatalf("%s pattern %d position %d: only %d data values", name, i, pos, len(values))
					}
					for _, v := range append(append(values, absent), constants(norm)...) {
						q := *norm
						q.Patterns = slices.Clone(norm.Patterns)
						if pos == 0 {
							q.Patterns[i].S = query.Constant(v)
						} else {
							q.Patterns[i].O = query.Constant(v)
						}
						if query.Shape(&q) != query.Shape(norm) {
							t.Fatalf("%s: re-bound text changed shape", name)
						}
						check(fmt.Sprintf("%s/%s pattern %d position %d = %s", name, c.name, i, pos, v), &q)
					}
				}
			}
		}
	}
}

// constants returns q's S/O constants.
func constants(q *query.BGP) []rdf.Term {
	var out []rdf.Term
	for _, pat := range q.Patterns {
		for _, n := range []query.Node{pat.S, pat.O} {
			if !n.IsVar {
				out = append(out, n.Term)
			}
		}
	}
	return out
}

// dataValues returns 12 distinct terms found at position pos (0 or 2) of
// the data, spread evenly over their sorted order: those of triples with
// predicate p first, then — where p has fewer (LUBM 1 has one university)
// — those of any predicate.
func dataValues(triples []rdf.Triple, p query.Node, pos int) []rdf.Term {
	const want = 12
	var out []rdf.Term
	taken := map[string]bool{}
	for _, anyPred := range []bool{false, true} {
		seen := map[string]rdf.Term{}
		for _, tr := range triples {
			if !anyPred && !p.IsVar && tr.P != p.Term {
				continue
			}
			v := tr.S
			if pos == 2 {
				v = tr.O
			}
			if !taken[v.Key()] {
				seen[v.Key()] = v
			}
		}
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		step := max(len(keys)/want, 1)
		for i := 0; i < len(keys) && len(out) < want; i += step {
			out = append(out, seen[keys[i]])
			taken[keys[i]] = true
		}
	}
	return out
}
