package exec_test

import (
	"io"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
)

// knowsGraph builds a seeded random digraph of nodes vertices and edges
// distinct edges (no self-loops) over one predicate, <http://bench/knows> —
// the shape of the benchmark's knows graph.
func knowsGraph(nodes, edges int, seed int64) *store.Store {
	rng := rand.New(rand.NewSource(seed))
	iris := make([]rdf.Term, nodes)
	for i := range iris {
		iris[i] = rdf.NewIRI("http://bench/n" + strconv.Itoa(i))
	}
	knows := rdf.NewIRI("http://bench/knows")
	seen := make(map[[2]int32]bool, edges)
	b := store.NewBuilder()
	for len(seen) < edges {
		e := [2]int32{int32(rng.Intn(nodes)), int32(rng.Intn(nodes))}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		b.Add(rdf.Triple{S: iris[e[0]], P: knows, O: iris[e[1]]})
	}
	return b.Build()
}

const knowsTriangle = `SELECT ?x ?y ?z WHERE {
  ?x <http://bench/knows> ?y .
  ?y <http://bench/knows> ?z .
  ?z <http://bench/knows> ?x .
}`

// BenchmarkTriangleKnows drains the knows triangle over a seeded
// 20k-node, 200k-edge digraph under the serving layout policy. The
// triangle's group is its three rotations, so the join enumerates each
// directed 3-cycle once, from its smallest vertex, and emits the other two
// rotations beside it. The join ends in the fused tail: for each ?x it
// marks ?x's in-neighbours once, then for each out-neighbour ?y ≥ ?x probes
// ?y's out-neighbours into the marks and keeps those ≥ ?x. On a 2-core Xeon
// the probes are about 30% of the join's time, reading the leaves they
// probe 10%, the leapfrog over ?y — which seeks ?x's out-neighbours from
// ?x in the bitset of every subject — 15%, marking the in-neighbours 9% and
// emitting the rotations 4%.
func BenchmarkTriangleKnows(b *testing.B) {
	st := knowsGraph(20000, 200000, 1)
	p, err := plan.Compile(query.MustParseSPARQL(knowsTriangle), st, plan.AllOptimizations)
	if err != nil {
		b.Fatal(err)
	}
	var opts engine.ExecOpts
	// Warm the lazy tries so the benchmark isolates the join.
	if _, err := exec.RunOpts(p, st, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := exec.Open(p, st, opts)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			_, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows++
		}
		cur.Close()
		if rows == 0 {
			b.Fatal("no triangles")
		}
	}
}

const knowsBarbell = `SELECT ?a ?b ?c ?d ?e ?f WHERE {
  ?a <http://bench/knows> ?b .
  ?b <http://bench/knows> ?c .
  ?c <http://bench/knows> ?a .
  ?c <http://bench/knows> ?d .
  ?d <http://bench/knows> ?e .
  ?e <http://bench/knows> ?f .
  ?f <http://bench/knows> ?d .
}`

// BenchmarkBarbellKnows drains the barbell, two triangles joined by a
// bridge edge ?c→?d, over the seeded 20k-node, 200k-edge knows graph under
// the fully optimized emptyheaded engine. Its GHD has the bridge at the root and
// one triangle in each child; both children are materialized before the
// root's join binds ?c and ?d and reads their tries. (The paper's §III-C
// would stream the ?c triangle's relations into the root's join instead:
// on this graph that drained slower.)
func BenchmarkBarbellKnows(b *testing.B) {
	st := knowsGraph(20000, 200000, 1)
	e := engines.NewEmptyHeaded(st, plan.AllOptimizations)
	p, err := e.Plan(query.MustParseSPARQL(knowsBarbell))
	if err != nil {
		b.Fatal(err)
	}
	if len(p.Root.Children) != 2 {
		b.Fatalf("barbell plan has %d root children, want 2:\n%s", len(p.Root.Children), p)
	}
	drain := func() int {
		cur, err := e.OpenPlan(p, engine.ExecOpts{})
		if err != nil {
			b.Fatal(err)
		}
		defer cur.Close()
		rows := 0
		for {
			_, err := cur.Next()
			if err == io.EOF {
				return rows
			}
			if err != nil {
				b.Fatal(err)
			}
			rows++
		}
	}
	// Warm the lazy tries so the benchmark isolates the join.
	if drain() == 0 {
		b.Fatal("no barbells")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain()
	}
}

const knowsFourCycle = `SELECT ?a ?b ?c ?d WHERE {
  ?a <http://bench/knows> ?b .
  ?b <http://bench/knows> ?c .
  ?c <http://bench/knows> ?d .
  ?d <http://bench/knows> ?a .
}`

// BenchmarkFourCycleKnows drains the directed 4-cycle over a seeded
// 2k-node, 20k-edge knows graph under the serving layout policy. Its group
// is the four rotations, so the join enumerates each cycle from its
// smallest vertex, ?b, ?c and ?d bounded below by ?a, and emits the other
// three rotations beside it.
func BenchmarkFourCycleKnows(b *testing.B) {
	st := knowsGraph(2000, 20000, 1)
	p, err := plan.Compile(query.MustParseSPARQL(knowsFourCycle), st, plan.AllOptimizations)
	if err != nil {
		b.Fatal(err)
	}
	if len(p.Sym) != 4 {
		b.Fatalf("plan keeps %d group elements, want 4:\n%s", len(p.Sym), p)
	}
	var opts engine.ExecOpts
	res, err := exec.RunOpts(p, st, opts)
	if err != nil {
		b.Fatal(err)
	}
	if res.Len() != 10150 {
		b.Fatalf("%d rows, want 10150", res.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunOpts(p, st, opts); err != nil {
			b.Fatal(err)
		}
	}
}

const knowsClique = `SELECT ?a ?b ?c ?d WHERE {
  ?a <http://bench/knows> ?b .
  ?a <http://bench/knows> ?c .
  ?b <http://bench/knows> ?c .
  ?a <http://bench/knows> ?d .
  ?b <http://bench/knows> ?d .
  ?c <http://bench/knows> ?d .
}`

// BenchmarkCliqueKnows drains the 4-clique over a seeded 2k-node, 60k-edge
// digraph, dense enough that the last attribute does real work: its join
// ends in the fused tail with two fixed inputs, ?a's and ?b's
// out-neighbours, whose intersection is hoisted out of ?c's loop and probed
// by each ?c's out-neighbours. At 30 out-neighbours in 2k ids those leaves
// are bitsets under the adaptive policy, which leaves ?c to the leapfrog and
// ?d to its own step, match by match; the uint policy times the tail. Either
// way most of the time is ?c's leapfrog, whose third input, every subject,
// its seeks gallop through; the tail itself is a few percent.
func BenchmarkCliqueKnows(b *testing.B) {
	st := knowsGraph(2000, 60000, 1)
	p, err := plan.Compile(query.MustParseSPARQL(knowsClique), st, plan.AllOptimizations)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy set.Policy
		tail   bool
	}{{"uint", set.PolicyUintOnly, true}, {"adaptive", set.PolicyAdaptive, false}} {
		p := exec.WithPolicy(p, tc.policy)
		// Warm the lazy tries so the benchmark isolates the join, and check
		// which path it times.
		tails, untrack := exec.CountTails()
		res, err := exec.RunOpts(p, st, engine.ExecOpts{})
		untrack()
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 || (tails(2, 1) > 0) != tc.tail {
			b.Fatalf("%s: %d rows, %d passes through the two-fixed-input tail", tc.name, res.Len(), tails(2, 1))
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunOpts(p, st, engine.ExecOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
