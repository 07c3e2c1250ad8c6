package exec_test

import (
	"io"
	"math/rand"
	"strconv"
	"testing"

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
// 20k-node, 200k-edge digraph under the serving layout policy. Almost all
// of its time is the last attribute: for each of the 200k (x, y) edges the
// join intersects y's out-neighbours with x's in-neighbours, two sets of
// about ten members each.
func BenchmarkTriangleKnows(b *testing.B) {
	st := knowsGraph(20000, 200000, 1)
	p, err := plan.Compile(query.MustParseSPARQL(knowsTriangle), st, plan.AllOptimizations)
	if err != nil {
		b.Fatal(err)
	}
	opts := exec.Options{Policy: set.PolicyAdaptive}
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
