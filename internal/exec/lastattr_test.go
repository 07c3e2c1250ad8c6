package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/naive"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
	"repro/internal/trie"
)

// skewedGraph builds a seeded graph over three predicates whose leaf sets
// reach every case of the join's last-attribute step. <e0> and <e1> have a
// few hub vertices of several hundred neighbours — dense enough for
// PolicyAdaptive to lay them out as bitsets beside the uint arrays of
// everyone else, and 32× or more larger than them — plus vertices of a
// single neighbour (a singleton leaf) and self-loops (for ?x p ?x). <e2> has
// only small degrees, so its levels stay uint-only under every policy.
func skewedGraph(seed int64) *store.Store {
	const nodes, hubs = 1200, 4
	rng := rand.New(rand.NewSource(seed))
	n := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/n%d", i)) }
	b := store.NewBuilder()
	for _, p := range []string{"e0", "e1"} {
		pred := rdf.NewIRI("http://ex/" + p)
		for v := 0; v < nodes; v++ {
			deg := 1 + rng.Intn(12)
			switch {
			case v < hubs:
				deg = 500 + rng.Intn(200)
			case v%10 == 0:
				deg = 1
			}
			for k := 0; k < deg; k++ {
				o := rng.Intn(nodes)
				if rng.Intn(4) == 0 {
					o = rng.Intn(hubs) // hubs are in-hubs too
				}
				b.Add(rdf.Triple{S: n(v), P: pred, O: n(o)})
			}
			if v%50 == 0 {
				b.Add(rdf.Triple{S: n(v), P: pred, O: n(v)})
			}
		}
	}
	e2 := rdf.NewIRI("http://ex/e2")
	for v := 0; v < nodes; v++ {
		for k := rng.Intn(9); k > 0; k-- {
			b.Add(rdf.Triple{S: n(v), P: e2, O: n(rng.Intn(nodes))})
		}
	}
	return b.Build()
}

// lastAttrInputs counts the relations of a single-node plan that bind its
// last attribute, or -1 for a multi-node plan.
func lastAttrInputs(p *plan.Plan) int {
	if len(p.Nodes()) != 1 || len(p.GlobalOrder) == 0 {
		return -1
	}
	last := p.GlobalOrder[len(p.GlobalOrder)-1]
	k := 0
	for _, r := range p.Root.Rels {
		for _, a := range r.Levels {
			if a.Name == last {
				k++
				break
			}
		}
	}
	return k
}

// TestLastAttributeMatchesNaive checks the join's last-attribute step —
// the kernel intersection straight from the trie arenas, its header and
// singleton paths, its probe of a loop-invariant leaf and its hand-back to
// the leapfrog — against the naive engine, under both layout policies,
// sequentially and with two workers, with the invariant leaf's bitmap at
// its usual cap and at one that makes some leaves fall back to the merge.
func TestLastAttributeMatchesNaive(t *testing.T) {
	st := skewedGraph(34)

	// The graph must produce what the step branches on: mixed-layout leaf
	// levels with 32× skew under PolicyAdaptive, uint-only ones otherwise.
	e0 := st.RelationByIRI("http://ex/e0")
	for _, tc := range []struct {
		policy      set.Policy
		wantBitsets bool
	}{{set.PolicyAdaptive, true}, {set.PolicyUintOnly, false}} {
		leaf := e0.TrieSO(tc.policy).Stats()[1]
		if got := leaf.BitsetNodes > 0 && leaf.UintNodes > 0; got != tc.wantBitsets {
			t.Fatalf("policy %d: e0 leaf level has %d bitset and %d uint nodes", tc.policy, leaf.BitsetNodes, leaf.UintNodes)
		}
		if leaf.MinCard != 1 || leaf.MaxCard < 32*13 { // 13 = the largest non-hub degree plus a self-loop
			t.Fatalf("policy %d: e0 leaf cardinalities %d..%d, want singletons and hubs", tc.policy, leaf.MinCard, leaf.MaxCard)
		}
	}
	if leaf := st.RelationByIRI("http://ex/e2").TrieSO(set.PolicyAdaptive).Stats()[1]; leaf.BitsetNodes != 0 {
		t.Fatalf("e2 leaf level has %d bitset nodes, want a uint-only level", leaf.BitsetNodes)
	}
	// The triangle's invariant leaves, ?x's e0 in-neighbours, must both fit
	// smallMarkWords and exceed it.
	if fit, exceed := markSpans(e0.TrieOS(set.PolicyUintOnly), smallMarkWords); fit == 0 || exceed == 0 {
		t.Fatalf("e0 in-neighbour leaves: %d fit %d words and %d exceed it, want both", fit, smallMarkWords, exceed)
	}

	cases := []struct {
		name   string
		text   string
		inputs int // relations binding the last attribute; 0 = not checked
	}{
		{"triangle", `SELECT ?x ?y ?z WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e1> ?z . ?z <http://ex/e0> ?x }`, 2},
		{"triangle-uint-levels", `SELECT ?x ?y ?z WHERE { ?x <http://ex/e2> ?y . ?y <http://ex/e2> ?z . ?z <http://ex/e2> ?x }`, 2},
		{"triangle-mixed-predicates", `SELECT ?x ?y ?z WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e2> ?z . ?z <http://ex/e1> ?x }`, 2},
		{"four-clique", `SELECT ?a ?b ?c ?d WHERE { ?a <http://ex/e0> ?b . ?a <http://ex/e0> ?c . ?b <http://ex/e1> ?c . ?a <http://ex/e1> ?d . ?b <http://ex/e0> ?d . ?c <http://ex/e2> ?d }`, 3},
		{"distinct-last-unprojected", `SELECT DISTINCT ?x ?y WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e1> ?z . ?z <http://ex/e0> ?x }`, 2},
		{"one-var-two-hubs", `SELECT ?x WHERE { <http://ex/n0> <http://ex/e0> ?x . <http://ex/n1> <http://ex/e1> ?x }`, 0},
		{"one-var-hub-and-small", `SELECT ?x WHERE { <http://ex/n2> <http://ex/e0> ?x . <http://ex/n7> <http://ex/e1> ?x }`, 0},
		{"one-var-singleton", `SELECT ?x WHERE { <http://ex/n3> <http://ex/e0> ?x . <http://ex/n10> <http://ex/e1> ?x }`, 0},
		{"one-var-three-inputs", `SELECT ?x WHERE { <http://ex/n0> <http://ex/e0> ?x . <http://ex/n1> <http://ex/e1> ?x . ?x <http://ex/e0> <http://ex/n2> }`, 0},
		{"one-var-one-hub", `SELECT ?x WHERE { <http://ex/n0> <http://ex/e0> ?x }`, 0},
		{"one-var-one-small", `SELECT ?x WHERE { <http://ex/n5> <http://ex/e0> ?x }`, 0},
		{"repeated-last-variable", `SELECT ?y ?x WHERE { ?y <http://ex/e0> ?x . ?x <http://ex/e1> ?x }`, 0},
		// The closing leaf, ?a's in-neighbours, stays the same while ?b and
		// ?c vary: two levels of the invariant-leaf probe.
		{"four-cycle", `SELECT ?a ?b ?c ?d WHERE { ?a <http://ex/e0> ?b . ?b <http://ex/e1> ?c . ?c <http://ex/e2> ?d . ?d <http://ex/e0> ?a }`, 2},
		// A path to a constant plans as a chain of GHD nodes; the last one
		// is the one-level trie of <n0>'s e2-neighbours, whose leaf is its
		// root, the same node for the whole join.
		{"path-to-constant", `SELECT ?x ?y ?z WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e1> ?z . <http://ex/n0> <http://ex/e2> ?z }`, 0},
	}
	ref := naive.New(st)
	for _, tc := range cases {
		q := query.MustParseSPARQL(tc.text)
		want, err := engine.Execute(ref, q)
		if err != nil {
			t.Fatalf("%s: naive: %v", tc.name, err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: no rows; the case tests nothing", tc.name)
		}
		p, err := plan.Compile(q, st, plan.AllOptimizations)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		if tc.inputs != 0 {
			if got := lastAttrInputs(p); got != tc.inputs {
				t.Fatalf("%s: %d relations bind the last attribute %v, want %d", tc.name, got, p.GlobalOrder, tc.inputs)
			}
		}
		for _, markWords := range []int{0, smallMarkWords} {
			restore := func() {}
			if markWords != 0 {
				restore = exec.SetMaxMarkWords(markWords)
			}
			for _, policy := range []set.Policy{set.PolicyAdaptive, set.PolicyUintOnly} {
				for _, workers := range []int{0, 2} {
					got, err := exec.RunOpts(p, st, exec.Options{Policy: policy, Workers: workers})
					if err != nil {
						t.Fatalf("%s policy=%d workers=%d markWords=%d: %v", tc.name, policy, workers, markWords, err)
					}
					if got.Canonical() != want.Canonical() {
						t.Errorf("%s policy=%d workers=%d markWords=%d: %d rows, want %d", tc.name, policy, workers, markWords, got.Len(), want.Len())
					}
				}
			}
			restore()
		}
	}
}

// smallMarkWords is a bitmap cap that some of skewedGraph's in-neighbour
// leaves fit and others exceed, so a run under it switches between probing
// the invariant leaf and falling back to the merge as that leaf changes.
const smallMarkWords = 4

// markSpans counts the leaves of a two-level trie whose members' id range,
// from the first rounded down to 64, fits in maxWords words, and those that
// exceed it.
func markSpans(tr *trie.Trie, maxWords int) (fit, exceed int) {
	root := tr.Root()
	for i := range root.Set().Len() {
		vals := root.Child(i).Set().AppendValues(nil)
		if int((vals[len(vals)-1]-vals[0]&^63)/64) < maxWords {
			fit++
		} else {
			exceed++
		}
	}
	return fit, exceed
}
