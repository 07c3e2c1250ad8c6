package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/naive"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
)

// tieGraph builds a seeded digraph over <http://ex/p> with self-loops and
// 2-cycles: the ties that give a solution of a symmetric shape fewer
// distinct images than the group has elements, or several bindings within
// the symmetry bound.
func tieGraph(nodes, edges int, seed int64) *store.Store {
	rng := rand.New(rand.NewSource(seed))
	n := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/n%d", i)) }
	p := rdf.NewIRI("http://ex/p")
	b := store.NewBuilder()
	for range edges {
		s, o := rng.Intn(nodes), rng.Intn(nodes)
		if rng.Intn(8) == 0 {
			o = s
		}
		b.Add(rdf.Triple{S: n(s), P: p, O: n(o)})
		if rng.Intn(3) == 0 {
			b.Add(rdf.Triple{S: n(o), P: p, O: n(s)})
		}
	}
	return b.Build()
}

// symShapes are symmetric BGPs over <http://ex/p> with their group orders.
// In the diamond, ?b and ?c swap while ?a and ?d stay: its bound is on one
// attribute and others follow it unbounded.
var symShapes = []struct {
	name  string
	vars  []string
	body  string
	order int
}{
	{"triangle", []string{"x", "y", "z"}, `?x <http://ex/p> ?y . ?y <http://ex/p> ?z . ?z <http://ex/p> ?x`, 3},
	{"four-cycle", []string{"a", "b", "c", "d"}, `?a <http://ex/p> ?b . ?b <http://ex/p> ?c . ?c <http://ex/p> ?d . ?d <http://ex/p> ?a`, 4},
	{"two-cycle", []string{"a", "b"}, `?a <http://ex/p> ?b . ?b <http://ex/p> ?a`, 2},
	{"diamond", []string{"a", "b", "c", "d"}, `?a <http://ex/p> ?b . ?a <http://ex/p> ?c . ?b <http://ex/p> ?d . ?c <http://ex/p> ?d`, 2},
}

// symQueries writes a shape with every variable projected, with only its
// second projected, and with its second under DISTINCT.
func symQueries(vars []string, body string) map[string]string {
	all := ""
	for _, v := range vars {
		all += " ?" + v
	}
	one := "?" + vars[1]
	return map[string]string{
		"all":      "SELECT" + all + " WHERE { " + body + " }",
		"one":      "SELECT " + one + " WHERE { " + body + " }",
		"distinct": "SELECT DISTINCT " + one + " WHERE { " + body + " }",
	}
}

// TestSymmetricMatchesNaive checks symmetry breaking against the naive
// engine as multisets: each symmetric shape over graphs with self-loops and
// 2-cycles, under both layout policies, sequentially and with 2, 4 and 7
// workers, with the selection-first attribute order and the natural one.
// Every plan must keep its group, and LIMIT/OFFSET pages must concatenate
// to the full row sequence.
func TestSymmetricMatchesNaive(t *testing.T) {
	natural := plan.AllOptimizations
	natural.AttributeReorder = false
	for _, seed := range []int64{3, 4} {
		st := tieGraph(40, 260, seed)
		ref := naive.New(st)
		for _, sh := range symShapes {
			for proj, text := range symQueries(sh.vars, sh.body) {
				q := query.MustParseSPARQL(text)
				want, err := engine.Execute(ref, q)
				if err != nil {
					t.Fatal(err)
				}
				if want.Len() == 0 {
					t.Fatalf("%s/%s seed %d: no rows; the case tests nothing", sh.name, proj, seed)
				}
				for _, popts := range []plan.Options{plan.AllOptimizations, natural} {
					p, err := plan.Compile(q, st, popts)
					if err != nil {
						t.Fatal(err)
					}
					if len(p.Sym) != sh.order {
						t.Fatalf("%s/%s: plan keeps %d elements, want %d\n%s", sh.name, proj, len(p.Sym), sh.order, p)
					}
					for _, policy := range []set.Policy{set.PolicyAdaptive, set.PolicyUintOnly} {
						for _, workers := range []int{0, 2, 4, 7} {
							label := fmt.Sprintf("%s/%s seed=%d order=%v policy=%d workers=%d", sh.name, proj, seed, p.GlobalOrder, policy, workers)
							opts := exec.Options{Policy: policy, Workers: workers}
							got, err := exec.RunOpts(p, st, opts)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if got.Canonical() != want.Canonical() {
								t.Errorf("%s: %d rows, want %d", label, got.Len(), want.Len())
								continue
							}
							if pages := pageThrough(t, p, st, opts, got.Len()/5+1); !slices.EqualFunc(pages, got.Rows, slices.Equal) {
								t.Errorf("%s: LIMIT/OFFSET pages differ from the full sequence", label)
							}
						}
					}
				}
			}
		}
	}
}

// pageThrough reads p's rows in pages of size rows, each a fresh execution
// with MaxRows and Offset, and concatenates them.
func pageThrough(t *testing.T, p *plan.Plan, st *store.Store, opts exec.Options, size int) [][]uint32 {
	t.Helper()
	var rows [][]uint32
	for off := 0; ; off += size {
		opts.Offset, opts.MaxRows = off, size
		page, err := exec.RunOpts(p, st, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, page.Rows...)
		if page.Len() < size {
			return rows
		}
	}
}

// FuzzSymmetricJoin runs a symmetric shape over a digraph of up to 64
// nodes, self-loops included, decoded from the input — the first byte picks
// the shape, the second the node count, each further pair an edge, up to
// maxFuzzEdges — and compares the join with the naive engine as multisets.
func FuzzSymmetricJoin(f *testing.F) {
	const maxFuzzEdges = 256
	f.Add([]byte{0, 5, 0, 1, 1, 2, 2, 0, 1, 1, 2, 1, 0, 2})
	f.Add([]byte{1, 6, 0, 1, 1, 0, 1, 2, 2, 1, 2, 3, 3, 0, 3, 3})
	f.Add([]byte{2, 3, 0, 0, 0, 1, 1, 0, 2, 2})
	f.Add([]byte{3, 4, 0, 1, 0, 2, 1, 3, 2, 3, 1, 1, 3, 3})
	p := rdf.NewIRI("http://ex/p")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sh := symShapes[int(data[0])%len(symShapes)]
		nodes := 1 + int(data[1])%64
		b := store.NewBuilder()
		for i := 2; i+1 < len(data) && i < 2+2*maxFuzzEdges; i += 2 {
			s, o := int(data[i])%nodes, int(data[i+1])%nodes
			b.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/n%d", s)), P: p, O: rdf.NewIRI(fmt.Sprintf("http://ex/n%d", o))})
		}
		st := b.Build()
		q := query.MustParseSPARQL(symQueries(sh.vars, sh.body)["all"])
		want, err := engine.Execute(naive.New(st), q)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(q, st, plan.AllOptimizations)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []set.Policy{set.PolicyAdaptive, set.PolicyUintOnly} {
			for _, workers := range []int{0, 3} {
				got, err := exec.RunOpts(pl, st, exec.Options{Policy: policy, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got.Canonical() != want.Canonical() {
					t.Fatalf("%s policy=%d workers=%d: %d rows, want %d", sh.name, policy, workers, got.Len(), want.Len())
				}
			}
		}
	})
}
