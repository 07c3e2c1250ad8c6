package query

import (
	"slices"
	"testing"

	"repro/internal/rdf"
)

// FuzzParseSPARQL checks that the parser never panics and that accepted
// queries re-validate and render.
func FuzzParseSPARQL(f *testing.F) {
	seeds := []string{
		`SELECT ?x WHERE { ?x <p> <o> . }`,
		`PREFIX a: <http://a#> SELECT * WHERE { ?x a:t ?y }`,
		`SELECT DISTINCT ?x ?y WHERE { ?x <p> "lit"@en . ?y <q> "5"^^<http://int> . }`,
		`SELECT WHERE`,
		`select ?x where { ?x ?p ?o . }`,
		`{}`,
		`SELECT ?x WHERE { ?x <p`,
		`# comment only`,
		`SELECT ?x WHERE { ?x <p> <o> } LIMIT 10`,
		`SELECT ?x WHERE { ?x <p> <o> } LIMIT 0 OFFSET 3`,
		`SELECT ?x WHERE { ?x <p> <o> } OFFSET 5 LIMIT 2`,
		`SELECT ?x WHERE { ?x <p> <o> } LIMIT -1`,
		`SELECT ?x WHERE { ?x <p> <o> } LIMIT 1 LIMIT 2`,
		`SELECT ?x WHERE { ?x <p> <o> } OFFSET`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := ParseSPARQL(text)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("parser accepted invalid query %q: %v", text, err)
		}
		if q.String() == "" {
			t.Fatalf("accepted query renders empty")
		}
	})
}

// FuzzShapeKey checks Shape's contract on parsed queries: two normalized
// queries share a shape iff they are equal once every subject and object
// constant is replaced by one placeholder. So rebinding S/O constants
// never changes a shape, while changing a predicate constant or binding
// a variable position always does — the plan server's templates are keyed
// by shape, and a collapse there would serve one query another's plan.
func FuzzShapeKey(f *testing.F) {
	seeds := [][2]string{
		{`SELECT ?x WHERE { ?x <p> <a> }`, `SELECT ?y WHERE { ?y <p> <b> }`},
		{`SELECT ?x WHERE { ?x <p> <a> }`, `SELECT ?x WHERE { ?x <q> <a> }`},
		{`SELECT ?x WHERE { ?x <p> "1" . <s> ?v ?x }`, `SELECT ?x WHERE { ?x <p> ?o . <s> ?v ?x }`},
		{`SELECT DISTINCT ?x WHERE { ?x <p> ?x }`, `SELECT ?x WHERE { ?x <p> ?x }`},
		{`SELECT ?x ?y WHERE { ?x <p> ?y . ?y <p> <c> }`, `SELECT ?y ?x WHERE { ?x <p> ?y . ?y <p> "c"@en }`},
		{`PREFIX a: <http://a#> SELECT ?x WHERE { a:s a:p ?x }`, `SELECT ?x WHERE { <http://a#t> <http://a#p> ?x } LIMIT 3`},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		qa, err := ParseSPARQL(a)
		if err != nil {
			return
		}
		na, _ := Normalize(qa)
		shape := Shape(na)

		rebound := cloneBGP(na)
		for i := range rebound.Patterns {
			p := &rebound.Patterns[i]
			for _, n := range []*Node{&p.S, &p.O} {
				if !n.IsVar {
					*n = Constant(rdf.NewLiteral("rebound"))
				}
			}
		}
		if got := Shape(rebound); got != shape {
			t.Fatalf("rebinding S/O constants changed the shape:\n%s\n%s", shape, got)
		}

		for i := range na.Patterns {
			for pos := 0; pos < 3; pos++ {
				m := cloneBGP(na)
				n := slot(&m.Patterns[i], pos)
				switch {
				case n.IsVar:
					*n = Constant(rdf.NewIRI("urn:fuzz:bound"))
				case pos == 1:
					*n = Constant(rdf.NewIRI(n.Term.Key()))
				default:
					continue
				}
				if Shape(m) == shape {
					t.Fatalf("pattern %d position %d changed but the shape did not: %s", i, pos, shape)
				}
			}
		}

		qb, err := ParseSPARQL(b)
		if err != nil {
			return
		}
		nb, _ := Normalize(qb)
		if same := Shape(nb) == shape; same != liftedEqual(na, nb) {
			t.Fatalf("shape equality %v disagrees with lifted equality for\n%s\n%s", same, na, nb)
		}
	})
}

func cloneBGP(q *BGP) *BGP {
	c := *q
	c.Patterns = slices.Clone(q.Patterns)
	return &c
}

func slot(p *Pattern, pos int) *Node {
	return []*Node{&p.S, &p.P, &p.O}[pos]
}

// liftedEqual compares two normalized queries with every S/O constant
// taken as equal to every other; terms compare by dictionary key.
func liftedEqual(a, b *BGP) bool {
	if a.Distinct != b.Distinct || !slices.Equal(a.Select, b.Select) || len(a.Patterns) != len(b.Patterns) {
		return false
	}
	for i := range a.Patterns {
		for pos := 0; pos < 3; pos++ {
			x, y := slot(&a.Patterns[i], pos), slot(&b.Patterns[i], pos)
			switch {
			case x.IsVar != y.IsVar:
				return false
			case x.IsVar:
				if x.Var != y.Var {
					return false
				}
			case pos == 1 && x.Term.Key() != y.Term.Key():
				return false
			}
		}
	}
	return true
}
