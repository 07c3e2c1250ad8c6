package plan_test

import (
	"testing"

	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

func profile(t testing.TB, st *store.Store, text string) plan.Profile {
	t.Helper()
	q, err := query.ParseSPARQL(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prof, err := plan.ProfileQuery(q, st)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return prof
}

// TestChooseClassRoutesLubmQueries pins the cost model's routing on the
// Table II perf queries: the selective and cyclic shapes (q1, q2, q7) go to
// the hybrid GHD engine, the output-heavy path query q8 to pure WCOJ (its
// per-row overhead is lower once results dominate), and the single-pattern
// scan q14 to scan-enumerate. These are the decisions the auto engine's
// acceptance numbers depend on, so a constant tweak that silently reroutes
// a query fails here instead of in a benchmark three PRs later.
func TestChooseClassRoutesLubmQueries(t *testing.T) {
	st := lubmStore(t)
	want := map[int]plan.EngineClass{
		1:  plan.ClassHybridGHD,
		2:  plan.ClassHybridGHD,
		7:  plan.ClassHybridGHD,
		8:  plan.ClassPureWCOJ,
		14: plan.ClassScanEnumerate,
	}
	for qn, wantClass := range want {
		prof := profile(t, st, lubm.Query(qn, 1))
		got, cost := prof.ChooseClass()
		if got != wantClass {
			t.Errorf("q%d routed to %s (cost %.0f), want %s", qn, got, cost, wantClass)
		}
		if cost <= 0 {
			t.Errorf("q%d: non-positive cost %f", qn, cost)
		}
	}
}

func TestChooseClassIsArgmin(t *testing.T) {
	st := lubmStore(t)
	for _, qn := range lubm.QueryNumbers {
		prof := profile(t, st, lubm.Query(qn, 1))
		got, cost := prof.ChooseClass()
		for _, c := range plan.Classes() {
			if prof.Cost(c) < cost {
				t.Errorf("q%d: chose %s at %.0f but %s costs %.0f", qn, got, cost, c, prof.Cost(c))
			}
		}
	}
}

func TestProfileEmptyQuery(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{t3("a", "p", "b")})
	prof := profile(t, st, `SELECT ?x WHERE { ?x <p> <zzz> . }`)
	if !prof.Empty {
		t.Fatalf("profile with unknown constant should be Empty")
	}
	if _, cost := prof.ChooseClass(); cost != 0 {
		t.Errorf("empty profile cost = %f, want 0", cost)
	}
}

// BenchmarkChooserProfile measures the full cost-model decision — profile
// the query against store statistics, price all three engine classes, pick
// the argmin — which is the per-miss overhead the auto engine adds on top
// of plan compilation. It must stay orders of magnitude under the cheapest
// query it routes.
func BenchmarkChooserProfile(b *testing.B) {
	st := store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
	queries := make([]*query.BGP, 0, len(lubm.QueryNumbers))
	for _, qn := range []int{1, 2, 7, 8, 14} {
		q, err := query.ParseSPARQL(lubm.Query(qn, 1))
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		prof, err := plan.ProfileQuery(q, st)
		if err != nil {
			b.Fatal(err)
		}
		if cls, _ := prof.ChooseClass(); cls.String() == "" {
			b.Fatal("unnamed class")
		}
	}
}
