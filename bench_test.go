// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the paper's §III optimizations. Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkTableI and BenchmarkTableII correspond to the paper's two
// tables (use cmd/benchtables for the paper-formatted output with the
// seven-run protocol); the remaining benchmarks cover Figure 1's data
// representation and the design-choice ablations.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/rdf"
)

// benchScale is the LUBM scale used by the Go benchmarks. cmd/benchtables
// defaults to a larger scale; keep this small so `go test -bench=.` stays
// minutes, not hours.
const benchScale = 1

var (
	dsOnce sync.Once
	ds     *repro.Dataset
)

func dataset(b *testing.B) *repro.Dataset {
	b.Helper()
	dsOnce.Do(func() {
		ds = repro.GenerateLUBM(benchScale, 0)
	})
	return ds
}

func run(b *testing.B, e repro.Engine, q *repro.BGP) {
	b.Helper()
	// Warm: builds tries/indexes and the plan cache, mirroring the
	// paper's exclusion of load and compile time.
	if _, err := repro.Execute(e, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Execute(e, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates Table I: each optimization disabled in turn
// on the paper's selected queries (1, 2, 4, 7, 8, 14).
func BenchmarkTableI(b *testing.B) {
	d := dataset(b)
	configs := []struct {
		name string
		opts repro.Options
	}{
		{"allopts", repro.AllOptimizations},
		{"nolayout", repro.Options{Layout: false, AttributeReorder: true, GHDPushdown: true}},
		{"noattribute", repro.Options{Layout: true, AttributeReorder: false, GHDPushdown: true}},
		{"noghd", repro.Options{Layout: true, AttributeReorder: true, GHDPushdown: false}},
	}
	for _, qn := range []int{1, 2, 4, 7, 8, 14} {
		q := repro.MustParse(repro.LUBMQuery(qn, benchScale))
		for _, cfg := range configs {
			e := repro.NewEmptyHeaded(d, cfg.opts)
			b.Run(fmt.Sprintf("q%d/%s", qn, cfg.name), func(b *testing.B) {
				run(b, e, q)
			})
		}
	}
}

// BenchmarkTableII regenerates Table II: all five engines on the full
// LUBM query set.
func BenchmarkTableII(b *testing.B) {
	d := dataset(b)
	engines := repro.Engines(d)
	for _, qn := range repro.LUBMQueryNumbers {
		q := repro.MustParse(repro.LUBMQuery(qn, benchScale))
		for _, e := range engines {
			b.Run(fmt.Sprintf("q%d/%s", qn, e.Name()), func(b *testing.B) {
				run(b, e, q)
			})
		}
	}
}

// BenchmarkFigure1DictionaryAndTrie covers Figure 1's transformation
// pipeline: raw triples -> dictionary encoding -> vertically partitioned
// tables -> tries (measured as a full dataset load).
func BenchmarkFigure1DictionaryAndTrie(b *testing.B) {
	triples := make([]repro.Triple, 0, 1<<16)
	for i := 0; i < 1<<14; i++ {
		triples = append(triples, repro.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/dept%d", i%512)),
			P: rdf.NewIRI("http://ex/subOrganizationOf"),
			O: rdf.NewIRI(fmt.Sprintf("http://ex/univ%d", i%64)),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := repro.LoadTriples(triples)
		if d.NumTriples() == 0 {
			b.Fatal("no triples")
		}
	}
}

// BenchmarkAblationAttrOrder isolates the §III-B1 effect on the Q14-shaped
// scan: selection-first versus natural attribute order.
func BenchmarkAblationAttrOrder(b *testing.B) {
	d := dataset(b)
	q := repro.MustParse(repro.LUBMQuery(14, benchScale))
	for _, cfg := range []struct {
		name    string
		reorder bool
	}{{"selection-first", true}, {"natural", false}} {
		e := repro.NewEmptyHeaded(d, repro.Options{Layout: true, AttributeReorder: cfg.reorder})
		b.Run(cfg.name, func(b *testing.B) { run(b, e, q) })
	}
}

// BenchmarkAblationGHD isolates the §III-B2 effect on Q4: star (baseline)
// versus chain (selections pushed down across nodes).
func BenchmarkAblationGHD(b *testing.B) {
	d := dataset(b)
	q := repro.MustParse(repro.LUBMQuery(4, benchScale))
	for _, cfg := range []struct {
		name     string
		pushdown bool
	}{{"chain", true}, {"star", false}} {
		e := repro.NewEmptyHeaded(d, repro.Options{Layout: true, AttributeReorder: true, GHDPushdown: cfg.pushdown})
		b.Run(cfg.name, func(b *testing.B) { run(b, e, q) })
	}
}

// BenchmarkTriangleScaling demonstrates the asymptotic separation the
// paper's introduction claims: worst-case optimal triangle listing versus
// a pairwise plan, on hub-skewed graphs of growing size.
func BenchmarkTriangleScaling(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		var triples []repro.Triple
		iri := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://g/n%d", i)) }
		knows := rdf.NewIRI("http://g/knows")
		hubs := 8
		for h := 0; h < hubs; h++ {
			for j := 0; j < n; j++ {
				if j != h {
					triples = append(triples, repro.Triple{S: iri(h), P: knows, O: iri(j)})
				}
			}
		}
		for s := hubs; s < n; s++ {
			triples = append(triples, repro.Triple{S: iri(s), P: knows, O: iri(hubs + (s-hubs+1)%(n-hubs))})
		}
		d := repro.LoadTriples(triples)
		q := repro.MustParse(`SELECT ?a ?b ?c WHERE {
  ?a <http://g/knows> ?b . ?b <http://g/knows> ?c . ?c <http://g/knows> ?a . }`)
		for _, mk := range []struct {
			name string
			e    repro.Engine
		}{
			{"wcoj", repro.NewEmptyHeaded(d, repro.AllOptimizations)},
			{"pairwise", repro.NewRDF3X(d)},
		} {
			b.Run(fmt.Sprintf("n%d/%s", n, mk.name), func(b *testing.B) {
				run(b, mk.e, q)
			})
		}
	}
}
