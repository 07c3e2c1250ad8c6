package exec_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
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

// TestLastAttributeMatchesNaive checks the join's last two attributes —
// the last attribute's own step over leaves read straight from the trie
// arenas or through their headers, and the fused tail with its hoisted
// intersection, bitmap probe and fallbacks — against the naive
// engine, row for row, under both layout policies, sequentially and with 2,
// 4 and 7 workers, with the tail's bitmap at its usual cap and at one that
// makes some hoisted sets fall back to the merge. A case naming a tail shape
// must take it, which the package's test hook counts.
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

	// A vertex with no e2 out-neighbours: the one-level trie of its
	// neighbours is empty, an F leaf with no members.
	sink := ""
	e2 := st.RelationByIRI("http://ex/e2").TrieSO(set.PolicyUintOnly).Root().Set()
	for i := 0; sink == ""; i++ {
		iri := fmt.Sprintf("http://ex/n%d", i)
		if id, ok := st.Dict().LookupIRI(iri); ok && !e2.Contains(uint32(id)) {
			sink = iri
		}
	}

	type shape struct{ fixed, varying int }
	cases := []struct {
		name   string
		text   string
		inputs int // relations binding the last attribute; 0 = not checked
		// tail is the fused tail's shape the case takes under
		// PolicyUintOnly — and under PolicyAdaptive too when adaptive is set,
		// V's leaf level then holding no bitsets; zero = not checked.
		tail     shape
		adaptive bool
		empty    bool // the result is empty by design
	}{
		{name: "triangle", text: `SELECT ?x ?y ?z WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e1> ?z . ?z <http://ex/e0> ?x }`, inputs: 2, tail: shape{1, 1}},
		{name: "triangle-uint-levels", text: `SELECT ?x ?y ?z WHERE { ?x <http://ex/e2> ?y . ?y <http://ex/e2> ?z . ?z <http://ex/e2> ?x }`, inputs: 2},
		{name: "triangle-mixed-predicates", text: `SELECT ?x ?y ?z WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e2> ?z . ?z <http://ex/e1> ?x }`, inputs: 2},
		// Two of the last attribute's three inputs are fixed across the
		// penultimate loop: ∩F is a kernel intersection.
		{name: "four-clique", text: `SELECT ?a ?b ?c ?d WHERE { ?a <http://ex/e0> ?b . ?a <http://ex/e0> ?c . ?b <http://ex/e1> ?c . ?a <http://ex/e1> ?d . ?b <http://ex/e0> ?d . ?c <http://ex/e2> ?d }`, inputs: 3, tail: shape{2, 1}},
		// LUBM q2's and q9's shape: a triangle whose vertices are each
		// filtered, so that F is an edge and a one-variable filter node.
		// As in q2, V's leaves are an e0 level, which holds bitsets under
		// PolicyAdaptive; as in q9, they are e2's, which never does.
		{name: "q2-shaped", text: `SELECT ?x ?y ?z WHERE { ?x <http://ex/e1> ?z . ?z <http://ex/e0> ?y . ?x <http://ex/e2> ?y . ?x <http://ex/e0> <http://ex/n0> . ?y <http://ex/e1> <http://ex/n1> . ?z <http://ex/e0> <http://ex/n2> }`, tail: shape{2, 1}},
		{name: "q9-shaped", text: `SELECT ?x ?y ?z WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e2> ?z . ?x <http://ex/e1> ?z . ?x <http://ex/e0> <http://ex/n0> . ?y <http://ex/e1> <http://ex/n1> . ?z <http://ex/e0> <http://ex/n2> }`, tail: shape{2, 1}, adaptive: true},
		// A triangle with a pendant edge: the pendant's leaf is fixed across
		// the triangle's last vertex and nothing varies, so every match
		// emits ∩F whole.
		{name: "lollipop", text: `SELECT ?a ?b ?c ?d WHERE { ?a <http://ex/e0> ?b . ?b <http://ex/e1> ?c . ?c <http://ex/e0> ?a . ?c <http://ex/e2> ?d }`, tail: shape{1, 0}, adaptive: true},
		// <n0>'s out-neighbours, several hundred of them, make the penultimate
		// attribute both the partition attribute and longer than a block.
		{name: "hub-triangle", text: `SELECT ?y ?z WHERE { <http://ex/n0> <http://ex/e0> ?y . ?y <http://ex/e2> ?z . <http://ex/n0> <http://ex/e1> ?z }`, tail: shape{1, 1}, adaptive: true},
		{name: "distinct-last-unprojected", text: `SELECT DISTINCT ?x ?y WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e1> ?z . ?z <http://ex/e0> ?x }`, inputs: 2},
		{name: "one-var-two-hubs", text: `SELECT ?x WHERE { <http://ex/n0> <http://ex/e0> ?x . <http://ex/n1> <http://ex/e1> ?x }`},
		{name: "one-var-hub-and-small", text: `SELECT ?x WHERE { <http://ex/n2> <http://ex/e0> ?x . <http://ex/n7> <http://ex/e1> ?x }`},
		{name: "one-var-singleton", text: `SELECT ?x WHERE { <http://ex/n3> <http://ex/e0> ?x . <http://ex/n10> <http://ex/e1> ?x }`},
		{name: "one-var-three-inputs", text: `SELECT ?x WHERE { <http://ex/n0> <http://ex/e0> ?x . <http://ex/n1> <http://ex/e1> ?x . ?x <http://ex/e0> <http://ex/n2> }`},
		{name: "one-var-one-hub", text: `SELECT ?x WHERE { <http://ex/n0> <http://ex/e0> ?x }`},
		{name: "one-var-one-small", text: `SELECT ?x WHERE { <http://ex/n5> <http://ex/e0> ?x }`},
		{name: "repeated-last-variable", text: `SELECT ?y ?x WHERE { ?y <http://ex/e0> ?x . ?x <http://ex/e1> ?x }`},
		// The closing leaf, ?a's in-neighbours, stays the same while ?b and
		// ?c vary: two levels of the hoisted leaf.
		{name: "four-cycle", text: `SELECT ?a ?b ?c ?d WHERE { ?a <http://ex/e0> ?b . ?b <http://ex/e1> ?c . ?c <http://ex/e2> ?d . ?d <http://ex/e0> ?a }`, inputs: 2, tail: shape{1, 1}},
		// A path to a constant plans as a chain of GHD nodes; the last one
		// is the one-level trie of <n0>'s e2-neighbours, whose leaf is its
		// root, the same node for the whole join. Under PolicyAdaptive the
		// join that probes it has V's leaves on an e1 level holding bitsets,
		// so ?y's step is the leapfrog and ?z runs its own step.
		{name: "path-to-constant", text: `SELECT ?x ?y ?z WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e1> ?z . <http://ex/n0> <http://ex/e2> ?z }`, tail: shape{1, 1}},
		// The same path to a vertex without e2-neighbours: ∩F is empty.
		{name: "path-to-empty", text: `SELECT ?x ?y ?z WHERE { ?x <http://ex/e0> ?y . ?y <http://ex/e1> ?z . <` + sink + `> <http://ex/e2> ?z }`, tail: shape{1, 1}, empty: true},
	}
	ref := naive.New(st)
	for _, tc := range cases {
		q := query.MustParseSPARQL(tc.text)
		want, err := engine.Execute(ref, q)
		if err != nil {
			t.Fatalf("%s: naive: %v", tc.name, err)
		}
		if (want.Len() == 0) != tc.empty {
			t.Fatalf("%s: %d rows; the case tests nothing", tc.name, want.Len())
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
				for _, workers := range []int{0, 2, 4, 7} {
					tails, untrack := exec.CountTails()
					got, err := exec.RunOpts(exec.WithPolicy(p, policy), st, engine.ExecOpts{Workers: workers})
					untrack()
					if err != nil {
						t.Fatalf("%s policy=%d workers=%d markWords=%d: %v", tc.name, policy, workers, markWords, err)
					}
					if got.Canonical() != want.Canonical() {
						t.Errorf("%s policy=%d workers=%d markWords=%d: %d rows, want %d", tc.name, policy, workers, markWords, got.Len(), want.Len())
					}
					if tc.tail != (shape{}) && (policy == set.PolicyUintOnly || tc.adaptive) && tails(tc.tail.fixed, tc.tail.varying) == 0 {
						t.Errorf("%s policy=%d workers=%d: no pass through a tail with |F| = %d and |V| = %d", tc.name, policy, workers, tc.tail.fixed, tc.tail.varying)
					}
				}
			}
			restore()
		}
	}
}

// smallMarkWords is a bitmap cap that some of skewedGraph's in-neighbour
// leaves fit and others exceed, so a run under it switches between probing
// the hoisted leaf and falling back to the merge as that leaf changes.
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

// TestLimitOverBitsetLeafStaysLazy runs a LIMIT 1 over one pattern whose
// subject leaf, the 2^18 subjects of one object, is a bitset: the last
// attribute's own step must walk that bitset by its iterator, taking only
// the row the LIMIT wants, not decode its members (1 MB) first. CI runs it
// without the race detector, under which allocation counts mean nothing.
func TestLimitOverBitsetLeafStaysLazy(t *testing.T) {
	if exec.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const subjects, maxBytes = 1 << 18, 256 << 10
	b := store.NewBuilder()
	p, o := rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/o")
	for i := range subjects {
		b.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: p, O: o})
	}
	st := b.Build()
	if leaf := st.RelationByIRI("http://ex/p").TrieOS(set.PolicyAdaptive).Stats()[1]; leaf.BitsetNodes != 1 {
		t.Fatalf("the subject leaf has %d bitset nodes, want 1", leaf.BitsetNodes)
	}
	e := core.New(st, core.AllOptimizations)
	// The query server turns a LIMIT into the cursor's row cap.
	q := query.MustParseSPARQL(`SELECT ?x WHERE { ?x <http://ex/p> <http://ex/o> } LIMIT 1`)
	run := func() {
		res, err := engine.Collect(e.Open(q, engine.ExecOpts{MaxRows: q.Limit}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("%d rows, want 1", res.Len())
		}
	}
	run()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxBytes {
		t.Errorf("LIMIT 1 allocated %d bytes per query, want at most %d", per, maxBytes)
	} else {
		t.Logf("LIMIT 1 allocated %d bytes per query", per)
	}
}
