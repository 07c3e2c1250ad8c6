package rdf3x

import (
	"context"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/pairwise"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

func t3(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

func buildProvider(t *testing.T) *provider {
	t.Helper()
	st := store.FromTriples([]rdf.Triple{
		t3("a", "p", "x"), t3("a", "p", "y"), t3("b", "p", "x"),
		t3("a", "q", "z"), t3("c", "q", "x"),
	})
	eng := New(st)
	p := eng.(*pairwise.Engine)
	_ = p
	// Rebuild directly to reach the provider internals.
	pr := &provider{st: st}
	for i, perm := range perms {
		idx := slices.Collect(st.All())
		perm := perm
		sortTriples(idx, perm)
		pr.indexes[i] = idx
	}
	return pr
}

func sortTriples(idx []store.Triple, perm [3]int) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			ka, kb := key(idx[j-1], perm), key(idx[j], perm)
			if ka[0] < kb[0] || ka[0] == kb[0] && (ka[1] < kb[1] || ka[1] == kb[1] && ka[2] <= kb[2]) {
				break
			}
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
}

func TestChooseIndexCoversAllPatterns(t *testing.T) {
	// Every subset of bound positions must be coverable by a prefix of one
	// of the six permutations.
	for mask := 0; mask < 8; mask++ {
		fixed := [3]bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		idx := chooseIndex(fixed)
		perm := perms[idx]
		covered := 0
		for _, pos := range perm {
			if fixed[pos] {
				covered++
			} else {
				break
			}
		}
		want := 0
		for _, f := range fixed {
			if f {
				want++
			}
		}
		if covered != want {
			t.Errorf("mask %03b: index %v covers %d of %d bound positions", mask, perm, covered, want)
		}
	}
}

func TestRangeScanExact(t *testing.T) {
	pr := buildProvider(t)
	pPat := query.Pattern{S: query.Variable("s"), P: query.Constant(rdf.NewIRI("p")), O: query.Variable("o")}
	if got := pr.EstimateCard(pPat); got != 3 {
		t.Errorf("p range = %v, want 3", got)
	}
	qPat := query.Pattern{S: query.Variable("s"), P: query.Constant(rdf.NewIRI("q")), O: query.Variable("o")}
	if got := pr.EstimateCard(qPat); got != 2 {
		t.Errorf("q range = %v, want 2", got)
	}
	// Subject+predicate bound.
	spPat := query.Pattern{S: query.Constant(rdf.NewIRI("a")), P: query.Constant(rdf.NewIRI("p")), O: query.Variable("o")}
	if got := pr.EstimateCard(spPat); got != 2 {
		t.Errorf("sp range = %v, want 2", got)
	}
	// Unknown constant: zero.
	missing := query.Pattern{S: query.Constant(rdf.NewIRI("zzz")), P: query.Constant(rdf.NewIRI("p")), O: query.Variable("o")}
	if got := pr.EstimateCard(missing); got != 0 {
		t.Errorf("missing = %v, want 0", got)
	}
}

func TestScanAndBoundScan(t *testing.T) {
	pr := buildProvider(t)
	pat := query.Pattern{S: query.Variable("s"), P: query.Constant(rdf.NewIRI("p")), O: query.Variable("o")}
	tab, err := pr.Scan(context.Background(), pat)
	if err != nil || len(tab.Rows) != 3 {
		t.Fatalf("scan rows = %d err %v", len(tab.Rows), err)
	}
	if !pr.CanBind(pat, []string{"s"}) {
		t.Errorf("CanBind false")
	}
	st := pr.st
	aID, _ := st.Dict().LookupIRI("a")
	count := 0
	err = pr.ScanBoundEach(context.Background(), pat, []string{"s"}, []uint32{aID}, func(row []uint32) { count++ })
	if err != nil || count != 2 {
		t.Errorf("bound scan count = %d err %v", count, err)
	}
}

func TestEstimateDistinctAndBound(t *testing.T) {
	pr := buildProvider(t)
	pat := query.Pattern{S: query.Variable("s"), P: query.Constant(rdf.NewIRI("p")), O: query.Variable("o")}
	if got := pr.EstimateDistinct(pat, "s"); got != 2 {
		t.Errorf("distinct s = %v", got)
	}
	if got := pr.EstimateDistinct(pat, "o"); got != 2 {
		t.Errorf("distinct o = %v", got)
	}
	if got := pr.EstimateBound(pat, []string{"s"}); got != 1.5 {
		t.Errorf("bound estimate = %v", got)
	}
	// Variable predicate distinct.
	vp := query.Pattern{S: query.Variable("s"), P: query.Variable("pp"), O: query.Variable("o")}
	if got := pr.EstimateDistinct(vp, "pp"); got != 2 {
		t.Errorf("distinct predicates = %v", got)
	}
}

func TestVariablePredicateScan(t *testing.T) {
	pr := buildProvider(t)
	pat := query.Pattern{S: query.Constant(rdf.NewIRI("a")), P: query.Variable("pp"), O: query.Variable("o")}
	tab, _ := pr.Scan(context.Background(), pat)
	if len(tab.Rows) != 3 {
		t.Errorf("a ?p ?o rows = %d", len(tab.Rows))
	}
}

func TestEngineEndToEnd(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{
		t3("a", "p", "x"), t3("b", "p", "x"), t3("a", "q", "x"),
	})
	e := New(st)
	if e.Name() != "rdf3x" {
		t.Errorf("name = %s", e.Name())
	}
	q := query.MustParseSPARQL(`SELECT ?s WHERE { ?s <p> <x> . ?s <q> <x> . }`)
	res, err := engine.Execute(e, q)
	if err != nil || res.Len() != 1 {
		t.Errorf("rows = %d err %v", res.Len(), err)
	}
}
